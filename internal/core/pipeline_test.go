package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"modchecker/internal/guest"
	"modchecker/internal/rootkit"
	"modchecker/internal/vmi"
)

func TestCriticalPath(t *testing.T) {
	d := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cases := []struct {
		costs []time.Duration
		w     int
		want  time.Duration
	}{
		{nil, 4, 0},
		{[]time.Duration{d(5)}, 8, d(5)},
		{[]time.Duration{d(3), d(1), d(1), d(1)}, 2, d(3)},
		{[]time.Duration{d(3), d(1), d(1), d(1)}, 1, d(6)},
		{[]time.Duration{d(3), d(1), d(1), d(1)}, 4, d(3)},
		{[]time.Duration{d(2), d(2), d(2), d(2)}, 2, d(4)},
		// w larger than the task count clamps to the task count.
		{[]time.Duration{d(1), d(2)}, 100, d(2)},
		// w < 1 behaves as 1.
		{[]time.Duration{d(1), d(2)}, 0, d(3)},
		// Zero-cost tasks (dedup followers) never move the makespan.
		{[]time.Duration{0, d(3), 0, 0, d(1), d(1), 0, d(1)}, 2, d(3)},
		{[]time.Duration{d(2), 0, 0, 0, d(2), 0}, 8, d(2)},
	}
	for i, c := range cases {
		cost := func(k int) time.Duration { return c.costs[k] }
		if got := listSchedule(len(c.costs), cost, c.w, nil); got != c.want {
			t.Errorf("case %d: listSchedule(%v, %d) makespan = %v, want %v", i, c.costs, c.w, got, c.want)
		}
	}
}

func TestRunBoundedExecutesEveryIndexOnce(t *testing.T) {
	const n = 257
	counts := make([]int32, n)
	var mu sync.Mutex
	runBounded(n, 8, func(i int) {
		mu.Lock()
		counts[i]++
		mu.Unlock()
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d executed %d times", i, c)
		}
	}
	// Degenerate bounds: sequential path and w > n.
	ran := 0
	runBounded(3, 1, func(int) { ran++ })
	runBounded(3, 64, func(int) {})
	if ran != 3 {
		t.Errorf("sequential runBounded ran %d tasks", ran)
	}
}

// poolSig fingerprints every field of a PoolReport that the clustered and
// full-pairwise comparison stages must agree on (everything except timing).
func poolSig(rep *PoolReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "module=%s healthy=%d flagged=%v inconclusive=%v errored=%v\n",
		rep.ModuleName, rep.Healthy, rep.Flagged, rep.Inconclusive, rep.Errored)
	for _, r := range rep.VMReports {
		fmt.Fprintf(&b, "vm=%s verdict=%v base=%#x succ=%d comp=%d errclass=%v err=%v\n",
			r.TargetVM, r.Verdict, r.Base, r.Successes, r.Comparisons, r.ErrClass, r.Err != nil)
		for _, p := range r.Pairs {
			fmt.Fprintf(&b, "  pair peer=%s match=%v mm=%v errclass=%v err=%v\n",
				p.PeerVM, p.Match, p.MismatchedComponents, p.ErrClass, p.Err != nil)
		}
		for _, c := range r.Components {
			fmt.Fprintf(&b, "  comp %s matches=%d mismatches=%d vms=%v\n",
				c.Name, c.Matches, c.Mismatches, c.MismatchedVMs)
		}
	}
	return b.String()
}

// TestClusteredMatchesPairwise is the core-level differential test: the
// digest pre-clustering stage must produce a report identical (verdicts,
// flags, pairs, per-component tallies) to the legacy full-pairwise stage,
// on a clean pool, on a pool with a tampered member, and on a pool with a
// missing module and an unreadable VM.
func TestClusteredMatchesPairwise(t *testing.T) {
	scenarios := []struct {
		name    string
		prepare func(t *testing.T, guests []*guestPool)
	}{
		{"clean", func(t *testing.T, _ []*guestPool) {}},
		{"tampered", func(t *testing.T, pools []*guestPool) {
			for _, p := range pools {
				if _, err := rootkit.InlineHookLive(p.guests[2], "alpha.sys"); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"degraded", func(t *testing.T, pools []*guestPool) {
			for _, p := range pools {
				// vm4 lacks the module entirely; vm5's copy is also tampered
				// so two distinct non-reference clusters exist.
				if err := p.guests[3].UnloadModule("alpha.sys"); err != nil {
					t.Fatal(err)
				}
				if _, err := rootkit.InlineHookLive(p.guests[4], "alpha.sys"); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, sc := range scenarios {
		for _, parallel := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/parallel=%v", sc.name, parallel), func(t *testing.T) {
				// Two identically seeded pools, one per comparison path, so
				// neither run perturbs the other's handle state.
				a := newGuestPool(t, 6)
				b := newGuestPool(t, 6)
				sc.prepare(t, []*guestPool{a, b})

				clustered, err := NewChecker(Config{Parallel: parallel}).CheckPool("alpha.sys", a.targets)
				if err != nil {
					t.Fatal(err)
				}
				pairwise, err := NewChecker(Config{Parallel: parallel, FullPairwise: true}).CheckPool("alpha.sys", b.targets)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := poolSig(clustered), poolSig(pairwise); got != want {
					t.Errorf("clustered report diverges from full pairwise:\n--- clustered\n%s--- pairwise\n%s", got, want)
				}
			})
		}
	}
}

// guestPool bundles testPool's outputs for scenario preparation.
type guestPool struct {
	guests  []*guest.Guest
	targets []Target
}

func newGuestPool(t *testing.T, n int) *guestPool {
	guests, targets := testPool(t, n)
	return &guestPool{guests: guests, targets: targets}
}

// TestParallelClusteredRace exercises the pooled scratch buffers and the
// bounded worker pool under the race detector: several parallel pool checks
// (clustered and full-pairwise) share the package-global scratchPool
// concurrently.
func TestParallelClusteredRace(t *testing.T) {
	var pools []*guestPool
	for i := 0; i < 3; i++ {
		pools = append(pools, newGuestPool(t, 5))
	}
	var wg sync.WaitGroup
	for i, p := range pools {
		wg.Add(1)
		go func(i int, p *guestPool) {
			defer wg.Done()
			cfg := Config{Parallel: true, FullPairwise: i%2 == 1}
			for _, module := range []string{"alpha.sys", "beta.sys"} {
				rep, err := NewChecker(cfg).CheckPool(module, p.targets)
				if err != nil {
					t.Error(err)
					return
				}
				if len(rep.Flagged) != 0 || rep.Healthy != len(p.targets) {
					t.Errorf("pool %d %s: flagged=%v healthy=%d", i, module, rep.Flagged, rep.Healthy)
				}
			}
		}(i, p)
	}
	wg.Wait()
}

// TestPoolSweepMatchesCheckPool pins that the session path (snapshot the
// module table once, copy per module) produces reports identical to the
// per-module CheckPool path.
func TestPoolSweepMatchesCheckPool(t *testing.T) {
	_, targets := testPool(t, 4)
	c := NewChecker(Config{})
	ps, err := c.NewPoolSweep(targets)
	if err != nil {
		t.Fatal(err)
	}
	mods, err := ps.Modules()
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) != 2 {
		t.Fatalf("session discovered %v", mods)
	}
	for i, rep := range ps.CheckModules(mods) {
		direct, err := c.CheckPool(mods[i], targets)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := poolSig(rep), poolSig(direct); got != want {
			t.Errorf("%s: sweep session report diverges from CheckPool:\n--- session\n%s--- direct\n%s",
				mods[i], got, want)
		}
	}
}

// TestPoolSweepAmortizesListWalks verifies the session's point: checking M
// modules through one PoolSweep costs fewer introspection reads than M
// standalone CheckPools, because the LDR list is walked once per VM instead
// of once per module per VM.
func TestPoolSweepAmortizesListWalks(t *testing.T) {
	readPages := func(targets []Target) uint64 {
		var n uint64
		for _, tg := range targets {
			n += tg.Handle.Stats().PagesRead
		}
		return n
	}
	_, direct := testPool(t, 4)
	c := NewChecker(Config{})
	for _, m := range []string{"alpha.sys", "beta.sys"} {
		if _, err := c.CheckPool(m, direct); err != nil {
			t.Fatal(err)
		}
	}
	directPages := readPages(direct)

	_, session := testPool(t, 4)
	ps, err := NewChecker(Config{}).NewPoolSweep(session)
	if err != nil {
		t.Fatal(err)
	}
	ps.CheckModules([]string{"alpha.sys", "beta.sys"})
	sessionPages := readPages(session)

	if sessionPages >= directPages {
		t.Errorf("sweep session read %d pages, standalone pools read %d — no amortization",
			sessionPages, directPages)
	}
}

// TestStatsCostExactMixedStrategy pins satellite (a): the stats-delta cost
// attribution must equal the sum of per-primitive nominal charges even when
// one window mixes page-wise reads (the LDR walk) with a bulk mapping (the
// CopyMapped module copy) and TLB hits.
func TestStatsCostExactMixedStrategy(t *testing.T) {
	guests, _ := testPool(t, 1)
	g := guests[0]
	var mu sync.Mutex
	var charged time.Duration
	h := vmi.Open(g.Name(), g.Phys(), g.CR3(), vmi.XPSP2Profile(guest.PsLoadedModuleListVA),
		vmi.WithCharge(func(d time.Duration) {
			mu.Lock()
			charged += d
			mu.Unlock()
		}))
	s := NewSearcher(h, CopyMapped)
	_, _, cost, err := s.FetchModule("beta.sys")
	if err != nil {
		t.Fatal(err)
	}
	if cost != charged {
		t.Errorf("FetchModule cost %v != sum of nominal charges %v (inexact attribution)", cost, charged)
	}
	st := h.Stats()
	if st.MapSetups == 0 || st.PagesMapped == 0 {
		t.Fatalf("mapped copy did not run: %+v", st)
	}
	if st.PagesRead <= st.PagesMapped {
		t.Fatalf("window has no page-wise reads to mix: %+v", st)
	}
	if st.TLBHits == 0 {
		t.Errorf("expected TLB hits during the list walk + copy window: %+v", st)
	}
}
