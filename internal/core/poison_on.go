//go:build modpoison

package core

// The modpoison build tag turns every buffer recycle into a scribble:
// putFetchBuf, putScratch and putWindows overwrite the bytes being returned
// with 0xDB before the pool takes them back, so any use-after-put — a
// report aliasing a recycled module copy, a digest computed over a buffer
// another goroutine already reclaimed, a memo entry read after its run
// released it, a double-put handing one buffer to two fetches — shows up
// as garbage hashes and failing differential tests instead of rare,
// order-dependent flakiness. The cache-smoke CI leg runs the differential
// suite under this tag.
func poisonBuf(b []byte) {
	for i := range b {
		b[i] = 0xDB
	}
}
