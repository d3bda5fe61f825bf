package core

import (
	"encoding/binary"
	"slices"
	"sync"
	"testing"
	"time"

	"modchecker/internal/pe"
	"modchecker/internal/rootkit"
)

func TestVote(t *testing.T) {
	cases := []struct {
		successes, comparisons int
		want                   Verdict
	}{
		{0, 0, VerdictInconclusive},
		{3, 3, VerdictClean},
		{2, 3, VerdictClean},
		{1, 3, VerdictAltered},
		{0, 3, VerdictAltered},
		{1, 2, VerdictInconclusive}, // exact tie
		{7, 14, VerdictInconclusive},
		{8, 14, VerdictClean},
		{6, 14, VerdictAltered},
		{1, 1, VerdictClean},
		{0, 1, VerdictAltered},
	}
	for _, c := range cases {
		if got := vote(c.successes, c.comparisons); got != c.want {
			t.Errorf("vote(%d,%d) = %v, want %v", c.successes, c.comparisons, got, c.want)
		}
	}
}

func TestVerdictString(t *testing.T) {
	if VerdictClean.String() != "CLEAN" || VerdictAltered.String() != "ALTERED" ||
		VerdictInconclusive.String() != "INCONCLUSIVE" {
		t.Error("verdict strings wrong")
	}
	if Verdict(9).String() == "" {
		t.Error("unknown verdict empty")
	}
}

func TestCheckModuleCleanPool(t *testing.T) {
	_, targets := testPool(t, 5)
	c := NewChecker(Config{})
	rep, err := c.CheckModule("alpha.sys", targets[0], targets[1:])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictClean {
		t.Fatalf("verdict %v; mismatched %v", rep.Verdict, rep.MismatchedComponents())
	}
	if rep.Successes != 4 || rep.Comparisons != 4 {
		t.Errorf("successes/comparisons = %d/%d", rep.Successes, rep.Comparisons)
	}
	for _, tally := range rep.Components {
		if tally.Mismatches != 0 || tally.Matches != 4 {
			t.Errorf("component %s: %d/%d", tally.Name, tally.Matches, tally.Mismatches)
		}
	}
	if rep.Timing.Searcher <= 0 || rep.Timing.Parser <= 0 || rep.Timing.Checker <= 0 {
		t.Errorf("timing not populated: %+v", rep.Timing)
	}
}

func TestCheckModuleInfectedTarget(t *testing.T) {
	guests, targets := testPool(t, 5)
	if err := rootkit.InfectDiskAndReload(guests[0], "alpha.sys", func(img []byte) ([]byte, error) {
		out, _, err := rootkit.OpcodeReplace(img)
		return out, err
	}); err != nil {
		t.Fatal(err)
	}
	c := NewChecker(Config{})
	rep, err := c.CheckModule("alpha.sys", targets[0], targets[1:])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictAltered {
		t.Fatalf("verdict %v", rep.Verdict)
	}
	if rep.Successes != 0 {
		t.Errorf("successes = %d", rep.Successes)
	}
	mm := rep.MismatchedComponents()
	if len(mm) != 1 || mm[0] != ".text" {
		t.Errorf("mismatched = %v", mm)
	}
	for _, p := range rep.Pairs {
		if p.Match || p.Err != nil {
			t.Errorf("pair %s: match=%v err=%v", p.PeerVM, p.Match, p.Err)
		}
	}
}

func TestCheckModuleInfectedPeer(t *testing.T) {
	// Target clean, one peer infected: verdict stays clean (majority),
	// with exactly one failing pair.
	guests, targets := testPool(t, 5)
	if err := rootkit.InfectDiskAndReload(guests[2], "alpha.sys", func(img []byte) ([]byte, error) {
		out, _, err := rootkit.OpcodeReplace(img)
		return out, err
	}); err != nil {
		t.Fatal(err)
	}
	c := NewChecker(Config{})
	rep, err := c.CheckModule("alpha.sys", targets[0], targets[1:])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictClean {
		t.Fatalf("verdict %v", rep.Verdict)
	}
	if rep.Successes != 3 || rep.Comparisons != 4 {
		t.Errorf("successes/comparisons = %d/%d", rep.Successes, rep.Comparisons)
	}
	var tally *ComponentTally
	for i := range rep.Components {
		if rep.Components[i].Name == ".text" {
			tally = &rep.Components[i]
		}
	}
	if tally == nil || tally.Mismatches != 1 || tally.Matches != 3 {
		t.Errorf("tally = %+v", tally)
	}
	for _, p := range rep.Pairs {
		if infected := p.PeerVM == targets[2].Name; p.Match == infected || infected && !slices.Equal(p.MismatchedComponents, []string{".text"}) {
			t.Errorf("pair %s: match=%v mismatched=%v", p.PeerVM, p.Match, p.MismatchedComponents)
		}
	}
}

func TestCheckModuleMissingOnTarget(t *testing.T) {
	_, targets := testPool(t, 3)
	c := NewChecker(Config{})
	if _, err := c.CheckModule("ghost.sys", targets[0], targets[1:]); err == nil {
		t.Error("check of missing module succeeded")
	}
}

func TestCheckModuleMissingOnPeer(t *testing.T) {
	guests, targets := testPool(t, 4)
	if err := guests[2].UnloadModule("alpha.sys"); err != nil {
		t.Fatal(err)
	}
	c := NewChecker(Config{})
	rep, err := c.CheckModule("alpha.sys", targets[0], targets[1:])
	if err != nil {
		t.Fatal(err)
	}
	// The failed peer is excluded from the vote, not counted against.
	if rep.Comparisons != 2 || rep.Verdict != VerdictClean {
		t.Errorf("comparisons=%d verdict=%v", rep.Comparisons, rep.Verdict)
	}
	var errPair *PairResult
	for i := range rep.Pairs {
		if rep.Pairs[i].PeerVM == targets[2].Name {
			errPair = &rep.Pairs[i]
		}
	}
	if errPair == nil || errPair.Err == nil {
		t.Error("unloaded peer not reported as errored pair")
	}
}

func TestCheckModuleNoPeers(t *testing.T) {
	_, targets := testPool(t, 1)
	c := NewChecker(Config{})
	rep, err := c.CheckModule("alpha.sys", targets[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictInconclusive {
		t.Errorf("verdict with zero peers = %v", rep.Verdict)
	}
}

func TestCheckModuleParallelEquivalent(t *testing.T) {
	guests, targets := testPool(t, 6)
	if err := rootkit.InfectDiskAndReload(guests[0], "alpha.sys", func(img []byte) ([]byte, error) {
		out, _, err := rootkit.OpcodeReplace(img)
		return out, err
	}); err != nil {
		t.Fatal(err)
	}
	seq, err := NewChecker(Config{}).CheckModule("alpha.sys", targets[0], targets[1:])
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewChecker(Config{Parallel: true}).CheckModule("alpha.sys", targets[0], targets[1:])
	if err != nil {
		t.Fatal(err)
	}
	if seq.Verdict != par.Verdict || seq.Successes != par.Successes {
		t.Errorf("parallel diverges: %v/%d vs %v/%d", seq.Verdict, seq.Successes, par.Verdict, par.Successes)
	}
}

func TestCheckModuleRelocNormalizer(t *testing.T) {
	guests, targets := testPool(t, 5)
	if err := rootkit.InfectDiskAndReload(guests[0], "alpha.sys", func(img []byte) ([]byte, error) {
		out, _, err := rootkit.OpcodeReplace(img)
		return out, err
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := NewChecker(Config{Normalizer: NormalizeRelocTable}).CheckModule("alpha.sys", targets[0], targets[1:])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictAltered {
		t.Errorf("reloc-table normalizer verdict = %v", rep.Verdict)
	}
	mm := rep.MismatchedComponents()
	if len(mm) != 1 || mm[0] != ".text" {
		t.Errorf("mismatched = %v", mm)
	}
	// And a clean module stays clean.
	rep2, err := NewChecker(Config{Normalizer: NormalizeRelocTable}).CheckModule("beta.sys", targets[0], targets[1:])
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Verdict != VerdictClean {
		t.Errorf("clean module verdict = %v: %v", rep2.Verdict, rep2.MismatchedComponents())
	}
}

func TestCheckModuleMappedStrategy(t *testing.T) {
	_, targets := testPool(t, 3)
	rep, err := NewChecker(Config{Strategy: CopyMapped}).CheckModule("alpha.sys", targets[0], targets[1:])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictClean {
		t.Errorf("verdict = %v", rep.Verdict)
	}
}

func TestChargeHookInvoked(t *testing.T) {
	_, targets := testPool(t, 3)
	var mu sync.Mutex
	var charged time.Duration
	c := NewChecker(Config{Charge: func(d time.Duration) time.Duration {
		mu.Lock()
		charged += d
		mu.Unlock()
		return 2 * d // pretend 2x contention
	}})
	rep, err := c.CheckModule("alpha.sys", targets[0], targets[1:])
	if err != nil {
		t.Fatal(err)
	}
	if charged <= 0 {
		t.Error("charge hook never invoked")
	}
	// Reported timings are the stretched values.
	if rep.Timing.Total() != 2*charged {
		t.Errorf("timing %v != 2 * charged %v", rep.Timing.Total(), charged)
	}
}

// TestElapsedModel pins the simulated-wall-clock semantics: sequential
// elapsed equals total work; parallel elapsed overlaps peer fetches and is
// strictly smaller (with >= 2 peers).
func TestElapsedModel(t *testing.T) {
	_, targets := testPool(t, 5)
	seq, err := NewChecker(Config{}).CheckModule("alpha.sys", targets[0], targets[1:])
	if err != nil {
		t.Fatal(err)
	}
	if seq.Elapsed != seq.Timing.Total() {
		t.Errorf("sequential elapsed %v != total %v", seq.Elapsed, seq.Timing.Total())
	}
	par, err := NewChecker(Config{Parallel: true}).CheckModule("alpha.sys", targets[0], targets[1:])
	if err != nil {
		t.Fatal(err)
	}
	if par.Elapsed >= seq.Elapsed {
		t.Errorf("parallel elapsed %v not below sequential %v", par.Elapsed, seq.Elapsed)
	}
	if par.Elapsed <= 0 {
		t.Error("parallel elapsed not populated")
	}
}

func TestPoolElapsedModel(t *testing.T) {
	_, targets := testPool(t, 5)
	seq, err := NewChecker(Config{}).CheckPool("alpha.sys", targets)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewChecker(Config{Parallel: true}).CheckPool("alpha.sys", targets)
	if err != nil {
		t.Fatal(err)
	}
	if par.Elapsed >= seq.Elapsed {
		t.Errorf("parallel pool elapsed %v not below sequential %v", par.Elapsed, seq.Elapsed)
	}
}

func TestTimingSearcherDominates(t *testing.T) {
	_, targets := testPool(t, 4)
	rep, err := NewChecker(Config{}).CheckModule("beta.sys", targets[0], targets[1:])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timing.Searcher <= rep.Timing.Parser+rep.Timing.Checker {
		t.Errorf("searcher %v does not dominate parser %v + checker %v (Fig. 7 property)",
			rep.Timing.Searcher, rep.Timing.Parser, rep.Timing.Checker)
	}
}

// TestHeaderTamperDetected exercises a live header patch: corrupting one
// byte of the in-memory OPTIONAL header must flag exactly that component.
func TestHeaderTamperDetected(t *testing.T) {
	guests, targets := testPool(t, 4)
	mod := guests[0].Module("alpha.sys")
	// OPTIONAL header: e_lfanew + 4 + FileHeaderSize; patch MinorImageVersion.
	raw := make([]byte, 0x40)
	guests[0].AddressSpace().Read(mod.Base, raw)
	lfanew := uint32(raw[0x3C]) | uint32(raw[0x3D])<<8
	off := lfanew + 4 + 20 + 46 // MinorImageVersion
	if err := rootkit.PatchLiveBytes(guests[0], "alpha.sys", off, []byte{0x99}); err != nil {
		t.Fatal(err)
	}
	rep, err := NewChecker(Config{}).CheckModule("alpha.sys", targets[0], targets[1:])
	if err != nil {
		t.Fatal(err)
	}
	mm := rep.MismatchedComponents()
	if len(mm) != 1 || mm[0] != "IMAGE_OPTIONAL_HEADER" {
		t.Errorf("mismatched = %v, want [IMAGE_OPTIONAL_HEADER]", mm)
	}
}

// TestRelocNormalizerBlindToRelocTamper documents the A2 trade-off on
// Bania's relocation-site mutation: an attacker who patches 4 code bytes
// with a plausible address, and then extends the module's own .reloc
// table so that the patch reads as a fixup site. The diff scan flags the
// patch either way (it requires the same RVA on both sides). The
// reloc-table normalizer trusts the extended table and rewrites the patch
// to an RVA, but it still differs from the peers' code bytes there, and
// the extended table is itself a checked component: .reloc is read-only
// section data, so the table edit surfaces on its own.
func TestRelocNormalizerBlindToRelocTamper(t *testing.T) {
	const patchRVA = 0x1100
	cases := []struct {
		name       string
		normalizer Normalizer
		extend     bool // also add a .reloc entry covering the patch
		want       []string
	}{
		{"diff-scan/patch", NormalizeDiffScan, false, []string{".text"}},
		{"diff-scan/patch+reloc", NormalizeDiffScan, true, []string{".reloc", ".text"}},
		{"reloc-table/patch", NormalizeRelocTable, false, []string{".text"}},
		{"reloc-table/patch+reloc", NormalizeRelocTable, true, []string{".reloc", ".text"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			guests, targets := testPool(t, 3)
			mod := guests[0].Module("alpha.sys")
			le := binary.LittleEndian
			// Overwrite 4 code bytes with (base + bogus RVA): looks like a
			// plausible address, but peers hold different bytes there.
			patch := le.AppendUint32(nil, mod.Base+0x3000)
			if err := rootkit.PatchLiveBytes(guests[0], "alpha.sys", patchRVA, patch); err != nil {
				t.Fatal(err)
			}
			if tc.extend {
				// Make the first .reloc block's padding entry a site at the
				// patch.
				lo, size := firstRelocBlock(t, guests[0], "alpha.sys")
				entry := le.AppendUint16(nil, pe.RelBasedHighLow<<12|patchRVA&0xFFF)
				if err := rootkit.PatchLiveBytes(guests[0], "alpha.sys", lo+size-2, entry); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := NewChecker(Config{Normalizer: tc.normalizer}).CheckModule("alpha.sys", targets[0], targets[1:])
			if err != nil {
				t.Fatal(err)
			}
			if rep.Verdict != VerdictAltered || !slices.Equal(rep.MismatchedComponents(), tc.want) {
				t.Errorf("verdict %v, mismatched %v; want ALTERED, %v", rep.Verdict, rep.MismatchedComponents(), tc.want)
			}
		})
	}
}

// TestCheckModulePeerOrderInvariant: the verdict and per-component tallies
// must not depend on peer ordering.
func TestCheckModulePeerOrderInvariant(t *testing.T) {
	guests, targets := testPool(t, 5)
	if err := rootkit.InfectDiskAndReload(guests[3], "alpha.sys", func(img []byte) ([]byte, error) {
		out, _, err := rootkit.OpcodeReplace(img)
		return out, err
	}); err != nil {
		t.Fatal(err)
	}
	perms := [][]Target{
		{targets[1], targets[2], targets[3], targets[4]},
		{targets[4], targets[3], targets[2], targets[1]},
		{targets[3], targets[1], targets[4], targets[2]},
	}
	var first *ModuleReport
	for i, peers := range perms {
		rep, err := NewChecker(Config{}).CheckModule("alpha.sys", targets[0], peers)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = rep
			continue
		}
		if rep.Verdict != first.Verdict || rep.Successes != first.Successes {
			t.Errorf("perm %d: %v/%d vs %v/%d", i, rep.Verdict, rep.Successes, first.Verdict, first.Successes)
		}
	}
}

// TestCheckSelfComparison: comparing a VM against itself always matches
// (identical bases short-circuit the normalization).
func TestCheckSelfComparison(t *testing.T) {
	_, targets := testPool(t, 1)
	rep, err := NewChecker(Config{}).CheckModule("alpha.sys", targets[0], []Target{targets[0]})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Successes != 1 || rep.Verdict != VerdictClean {
		t.Errorf("self comparison: %v %d/%d", rep.Verdict, rep.Successes, rep.Comparisons)
	}
}
