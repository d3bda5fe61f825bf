package core

import (
	"testing"
)

// FuzzParseModule hardens Module-Parser against arbitrary guest memory: a
// compromised guest controls every byte the searcher copies out, so the
// parser must never panic.
func FuzzParseModule(f *testing.F) {
	_, targets := testPool(f, 1)
	s := NewSearcher(targets[0].Handle, CopyPageWise)
	_, buf, _, err := s.FetchModule("alpha.sys")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(buf[:4096], uint32(0xF8CC2000))
	f.Add([]byte{}, uint32(0))
	f.Add([]byte("MZ"), uint32(1))
	f.Fuzz(func(t *testing.T, data []byte, base uint32) {
		m, _, err := ParseModule("fuzz", "x.sys", base, data)
		if err != nil {
			return
		}
		// A successfully parsed module must have internally consistent
		// components.
		for _, c := range m.Components {
			if len(c.Data) == 0 && c.Kind != KindSectionData {
				t.Fatalf("empty header component %s", c.Name)
			}
		}
	})
}

// FuzzNormalizePair is a differential fuzzer of Algorithm 2: the word-at-
// a-time scan must rewrite exactly the bytes, and report exactly the sites,
// of the byte-at-a-time reference loop, and never rewrite out of bounds.
func FuzzNormalizePair(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{1, 2, 9, 9, 5, 6, 7, 8}, uint32(0xF8CC2000), uint32(0xF8D0C000))
	f.Add([]byte{}, []byte{}, uint32(0), uint32(0))
	f.Add([]byte{1}, []byte{2}, uint32(1), uint32(2))
	for _, s := range normalizeSeeds(f) {
		f.Add(s.d1, s.d2, s.b1, s.b2)
	}
	f.Fuzz(func(t *testing.T, d1, d2 []byte, b1, b2 uint32) {
		n1, n2, sites := NormalizePair(d1, d2, b1, b2)
		if len(n1) != len(d1) || len(n2) != len(d2) {
			t.Fatal("lengths changed")
		}
		limit := len(n1)
		if len(n2) < limit {
			limit = len(n2)
		}
		for _, s := range sites {
			if int(s)+4 > limit {
				t.Fatalf("site %#x beyond comparable range %#x", s, limit)
			}
		}
		checkAgainstBytewise(t, d1, d2, b1, b2)
	})
}
