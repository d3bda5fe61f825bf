// Package cas is the content-addressed digest store behind the sweep
// pipeline's cross-sweep cache. Entries are keyed by *content identity*,
// not by VM: a Token names one frozen guest-memory image (an mm.ContentID
// plus the domain's mapping epoch), and token equality means the entire
// guest-physical image is bit-identical to when the entry was written — so
// every read-only derivation of it (module fetch, parse, normalization,
// digest, mismatch scan) would reproduce exactly. That is what makes a hit
// sound: the store never guesses, it only replays conclusions whose inputs
// provably have not changed.
//
// Every record is also keyed by its Source, the normalizer that computed
// it: a digest key depends on where a copy's rewrite windows came from, so
// records of one source never answer a lookup of another. Two record kinds
// are cached:
//
//   - Digest entries, keyed (source, module, refToken, ownToken): the
//     cluster key one VM's copy of a module produced against the sweep
//     reference whose image is refToken, plus the copy's component names.
//     A copy the reference covers on every component, the reference itself
//     (ownToken == refToken) included, stores the covered key of its run,
//     which names the rewrite windows it was covered under; any other copy
//     stores its digest key.
//
//   - Mismatch entries, keyed (source, module, refToken, keyA, keyB): the
//     component mismatch list of the one true comparison between two
//     cluster representatives. The engine passes each cluster's key with
//     its load base appended where the normalizer's outcome depends on the
//     pair's bases; copies that share a key and a base carry the same
//     compared bytes, so the pair's outcome is a pure function of the two
//     keys.
//
// Invalidation is structural rather than explicit: a guest write dirties
// the copy-on-write overlay and the VM stops advertising a ContentID, a
// snapshot revert or fault-plan lifecycle event bumps the mapping epoch —
// either way the VM's token changes and its old entries simply stop being
// addressable. Stale entries age out of the bounded in-memory tier FIFO.
//
// The store has an optional persistent tier (see persist.go): a crash-safe
// append-only log replayed into the in-memory index on open.
//
// Concurrency: the store is mutex-safe, but the sweep pipeline only ever
// consults it from the sweep's driving goroutine, in pool order — lookups
// and inserts must stay deterministic because eviction order (and therefore
// later hit/miss patterns, and therefore simulated time) feeds the
// byte-identical-replay invariant.
package cas

import (
	"sync"
)

// DefaultMaxEntries bounds the in-memory tier when Options leave it zero.
// A digest entry is a few dozen bytes plus component names; a million
// entries keep the store well under typical fleet-sweep working sets.
const DefaultMaxEntries = 1 << 20

// Token names one frozen guest-memory image: the mm.ContentID of the
// copy-on-write base layer the VM is an unmodified fork of, plus the
// domain's mapping epoch. OK is false when the VM has no stable identity
// (dirtied frames, no frozen base, destroyed domain, fault plan installed)
// — such tokens never hit and are never stored.
type Token struct {
	ID    uint64
	Epoch uint64
	OK    bool
}

// Entry is one VM's cached digest outcome for one module against one
// reference image: the digest-cluster key (empty for the reference's
// cluster) and the parsed copy's component names in module order.
type Entry struct {
	Key   string
	Names []string
}

// Source names the normalizer a record was computed under (see the package
// documentation). The zero Source is the diff scan, Algorithm 2.
type Source uint8

// Stats is a point-in-time counter snapshot of store traffic.
type Stats struct {
	// Lookups counts LookupDigest + LookupMismatch calls with valid tokens;
	// Hits counts the ones that found an entry.
	Lookups uint64
	Hits    uint64
	// Inserts counts entries actually added (re-inserting an identical
	// entry is a no-op and counts nothing).
	Inserts uint64
	// Evicted counts entries dropped by the FIFO bound.
	Evicted uint64
	// Loaded is how many entries the persistent tier replayed at open;
	// Persistent reports whether a disk tier is attached.
	Loaded     int
	Persistent bool
}

// record kinds, shared with the persistent tier's log format.
const (
	kindDigest   = byte(1)
	kindMismatch = byte(2)
)

// storeKey addresses one entry in the unified FIFO order.
type storeKey struct {
	kind byte
	key  string
}

// Store is the two-tier content-addressed store.
type Store struct {
	mu         sync.Mutex
	digests    map[string]Entry    // guarded by mu
	mismatches map[string][]string // guarded by mu
	order      []storeKey          // guarded by mu; insertion order across both maps, for FIFO eviction
	max        int                 // guarded by mu
	stats      Stats               // guarded by mu
	log        *logFile            // guarded by mu; nil: in-memory only
}

// NewStore creates an in-memory store. maxEntries bounds the total entry
// count across both record kinds; zero or negative selects
// DefaultMaxEntries.
func NewStore(maxEntries int) *Store {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	return &Store{
		digests:    make(map[string]Entry),
		mismatches: make(map[string][]string),
		max:        maxEntries,
	}
}

// keyBufSize sizes the stack buffers lookups build their keys in: a
// source, a module name, two tokens and two digest keys fit, so a lookup
// allocates no key (a longer key spills to the heap).
const keyBufSize = 128

// digestKey flattens the (source, module, ref, own) address. Tokens are
// fixed-width binary so modules whose names embed separators cannot
// collide.
func digestKey(src Source, module string, ref, own Token) string {
	return string(appendDigestKey(make([]byte, 0, 2+len(module)+32), src, module, ref, own))
}

// appendDigestKey appends digestKey's bytes to b.
func appendDigestKey(b []byte, src Source, module string, ref, own Token) []byte {
	b = append(b, byte(src))
	b = append(b, module...)
	b = append(b, 0)
	b = appendToken(b, ref)
	return appendToken(b, own)
}

// mismatchKey flattens the (source, module, ref, keyA, keyB) address.
// Cluster keys differ in length (an MD5 string, empty, or either with a
// load base appended), so keyA is length-prefixed.
func mismatchKey(src Source, module string, ref Token, ka, kb string) string {
	return string(appendMismatchKey(make([]byte, 0, 4+len(module)+len(ka)+len(kb)+16), src, module, ref, ka, kb))
}

// appendMismatchKey appends mismatchKey's bytes to b.
func appendMismatchKey(b []byte, src Source, module string, ref Token, ka, kb string) []byte {
	b = append(b, byte(src))
	b = append(b, module...)
	b = append(b, 0)
	b = appendToken(b, ref)
	b = append(b, byte(len(ka)))
	b = append(b, ka...)
	return append(b, kb...)
}

func appendToken(b []byte, t Token) []byte {
	for s := 56; s >= 0; s -= 8 {
		b = append(b, byte(t.ID>>s))
	}
	for s := 56; s >= 0; s -= 8 {
		b = append(b, byte(t.Epoch>>s))
	}
	return b
}

// LookupDigest is LookupDigestFrom for the diff scan's records, the form
// perfbench's store replay calls.
func (s *Store) LookupDigest(module string, ref, own Token) (Entry, bool) {
	return s.LookupDigestFrom(0, module, ref, own)
}

// InsertDigest is InsertDigestFrom for the diff scan's records, the form
// perfbench's store replay calls.
func (s *Store) InsertDigest(module string, ref, own Token, e Entry) {
	s.InsertDigestFrom(0, module, ref, own, e)
}

// LookupDigestFrom returns source src's cached digest entry for one VM's
// copy of module against the reference image ref, where own is the VM's
// current token. Invalid tokens never hit.
func (s *Store) LookupDigestFrom(src Source, module string, ref, own Token) (Entry, bool) {
	if !ref.OK || !own.OK {
		return Entry{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Lookups++
	var buf [keyBufSize]byte
	e, ok := s.digests[string(appendDigestKey(buf[:0], src, module, ref, own))]
	if ok {
		s.stats.Hits++
	}
	return e, ok
}

// InsertDigestFrom stores one VM's digest outcome under source src.
// Entries under invalid tokens are dropped (nothing could ever address
// them), and re-inserting an identical entry is a no-op — the persistent
// log does not grow.
func (s *Store) InsertDigestFrom(src Source, module string, ref, own Token, e Entry) {
	if !ref.OK || !own.OK {
		return
	}
	key := digestKey(src, module, ref, own)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.digests[key]; ok && old.Key == e.Key && equalStrings(old.Names, e.Names) {
		return
	}
	e.Names = append([]string(nil), e.Names...)
	s.insertLocked(storeKey{kindDigest, key}, func() { s.digests[key] = e })
	if s.log != nil {
		s.log.appendDigest(src, module, ref, own, e)
	}
}

// LookupMismatchFrom returns source src's cached mismatch list of the
// representative comparison between the clusters keyed ka and kb under the
// reference image ref. ok distinguishes a cached empty list (the clusters
// matched) from no entry at all.
func (s *Store) LookupMismatchFrom(src Source, module string, ref Token, ka, kb string) ([]string, bool) {
	if !ref.OK {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Lookups++
	var buf [keyBufSize]byte
	mm, ok := s.mismatches[string(appendMismatchKey(buf[:0], src, module, ref, ka, kb))]
	if ok {
		s.stats.Hits++
	}
	return mm, ok
}

// InsertMismatchFrom stores one representative comparison's outcome under
// source src. An empty list is a meaningful entry (the clusters matched)
// and is stored too.
func (s *Store) InsertMismatchFrom(src Source, module string, ref Token, ka, kb string, mm []string) {
	if !ref.OK {
		return
	}
	key := mismatchKey(src, module, ref, ka, kb)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.mismatches[key]; ok && equalStrings(old, mm) {
		return
	}
	stored := make([]string, len(mm))
	copy(stored, mm)
	s.insertLocked(storeKey{kindMismatch, key}, func() { s.mismatches[key] = stored })
	if s.log != nil {
		s.log.appendMismatch(src, module, ref, ka, kb, stored)
	}
}

// insertLocked applies one insert and enforces the FIFO bound. put must
// write exactly the key being inserted. Overwrites of a live key keep its
// original queue position — the bound is on distinct entries.
func (s *Store) insertLocked(k storeKey, put func()) {
	fresh := true
	switch k.kind {
	case kindDigest:
		_, ok := s.digests[k.key]
		fresh = !ok
	case kindMismatch:
		_, ok := s.mismatches[k.key]
		fresh = !ok
	}
	put()
	s.stats.Inserts++
	if !fresh {
		return
	}
	s.order = append(s.order, k)
	for len(s.order) > s.max {
		old := s.order[0]
		s.order = s.order[1:]
		switch old.kind {
		case kindDigest:
			delete(s.digests, old.key)
		case kindMismatch:
			delete(s.mismatches, old.key)
		}
		s.stats.Evicted++
	}
}

// Len returns the total live entry count across both record kinds.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.digests) + len(s.mismatches)
}

// Stats returns a snapshot of the store's traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Flush forces the persistent tier's buffered appends to disk. A no-op for
// in-memory stores.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	return s.log.flush()
}

// Close flushes and closes the persistent tier. The in-memory index stays
// usable (as a memory-only store) after Close. Safe to call twice.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.close()
	s.log = nil
	return err
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
