package core

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"modchecker/internal/cas"
	"modchecker/internal/hypervisor"
	"modchecker/internal/pe"
	"modchecker/internal/rootkit"
)

// sectionHeaderRVA returns the RVA of the section table entry of the named
// section in a module image.
func sectionHeaderRVA(t testing.TB, img []byte, name string) uint32 {
	t.Helper()
	p, err := pe.Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	lfanew := binary.LittleEndian.Uint32(img[0x3C:])
	for i := range p.Sections {
		if p.Sections[i].Header.NameString() == name {
			return lfanew + 4 + pe.FileHeaderSize + pe.OptionalHeader32Size + uint32(i)*pe.SectionHeaderSize
		}
	}
	t.Fatalf("no section %s", name)
	return 0
}

// TestCompareStageMatchesPairwise is the differential test of the compare
// stage's digest facts. Each scenario runs on two identical six-VM fleets
// of two templates: Dom1, Dom3 and Dom5 load the module at one base,
// Dom2, Dom4 and Dom6 at another, and Dom1 is the reference. The clustered
// engine on one fleet must report exactly what the full-pairwise oracle
// reports on the other: verdicts, pairs, mismatch lists and tallies.
//
// Every representative comparison of the clustered run must also equal a
// comparison of fresh copies of the two representatives, which carry no
// digest facts and so run Algorithm 2 on every component: the same
// mismatch list and the same charge. Two clusters of one key, a key split
// by base, must match as fresh copies and are charged nothing. The compare stage's elapsed time, its
// charges in order and the Checker's work must be exactly what those fresh
// charges add up to.
func TestCompareStageMatchesPairwise(t *testing.T) {
	const module = "alpha.sys"
	disk := testDisk(t)
	hook := func(t *testing.T, d *hypervisor.Domain) {
		t.Helper()
		if _, err := rootkit.InlineHookLive(d.Guest(), module); err != nil {
			t.Fatal(err)
		}
	}
	renamed := []byte(".rdat2\x00\x00")
	scenarios := []struct {
		name    string
		prepare func(t *testing.T, ds []*hypervisor.Domain)
		// store runs the check twice through sweep sessions with a digest
		// store, prepare going between the two runs; only the second run
		// is compared.
		store bool
		// derived: the digest facts answer some component of the run.
		derived bool
	}{
		// One cluster: no comparison runs at all.
		{name: "clean", prepare: func(*testing.T, []*hypervisor.Domain) {}},
		{name: "infected reference", prepare: func(t *testing.T, ds []*hypervisor.Domain) { hook(t, ds[0]) }, derived: true},
		// Dom2 digests first, so a tampered pair fills the memo entry.
		{name: "infected copy after the reference", prepare: func(t *testing.T, ds []*hypervisor.Domain) { hook(t, ds[1]) }, derived: true},
		// Clusters at the reference's base (Dom3, and the infected Dom5)
		// beside clusters at the other base (Dom2, and the infected Dom4).
		{name: "equal and different bases", prepare: func(t *testing.T, ds []*hypervisor.Domain) {
			hook(t, ds[3])
			hook(t, ds[4])
		}, derived: true},
		// Only Dom4 misses the store: the reference is materialized to
		// digest it, the clean clusters only to compare against it.
		{name: "store hits materialized", prepare: func(t *testing.T, ds []*hypervisor.Domain) { hook(t, ds[3]) },
			store: true, derived: true},
		// Dom4's DOS stub differs: a component Algorithm 2 does not
		// normalize.
		{name: "patched header", prepare: func(t *testing.T, ds []*hypervisor.Domain) {
			if err := rootkit.PatchLiveBytes(ds[3].Guest(), module, 0x4E, []byte("t")); err != nil {
				t.Fatal(err)
			}
		}, derived: true},
		// Dom4's .rdata is .rdat2: a component only one side has.
		{name: "component on one side", prepare: func(t *testing.T, ds []*hypervisor.Domain) {
			rva := sectionHeaderRVA(t, disk[module], ".rdata")
			if err := rootkit.PatchLiveBytes(ds[3].Guest(), module, rva, renamed); err != nil {
				t.Fatal(err)
			}
		}, derived: true},
	}
	for _, sc := range scenarios {
		for _, parallel := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/parallel=%v", sc.name, parallel), func(t *testing.T) {
				clustered, oracle := memoFleet(t, 6, disk, 16<<20), memoFleet(t, 6, disk, 16<<20)
				targets := fleetTargets(clustered)
				// Charges are recorded in order from a sequential run.
				var charges []time.Duration
				cfg := Config{Parallel: parallel}
				if !parallel {
					cfg.Charge = func(d time.Duration) time.Duration {
						charges = append(charges, d)
						return d
					}
				}
				// prevKeys are the cluster keys of the store's first run:
				// pairs between them are replayed from the store.
				prevKeys := map[string]bool{}
				var e *engine
				if sc.store {
					cfg.DigestCache = cas.NewStore(0)
					c := NewChecker(cfg)
					ps, err := c.NewPoolSweep(targets)
					if err != nil {
						t.Fatal(err)
					}
					for _, cl := range ps.eng.check(module).clusters {
						prevKeys[cl.key] = true
					}
					ps.Close()
					sc.prepare(t, clustered)
					if ps, err = c.NewPoolSweep(targets); err != nil {
						t.Fatal(err)
					}
					defer ps.Close()
					e = ps.eng
				} else {
					sc.prepare(t, clustered)
					e = NewChecker(cfg).poolEngine(targets)
				}
				sc.prepare(t, oracle)

				charges = nil
				o := e.check(module)
				runCharges := charges
				e.derive(o)
				want, err := NewChecker(Config{Parallel: parallel, FullPairwise: true}).CheckPool(module, fleetTargets(oracle))
				if err != nil {
					t.Fatal(err)
				}
				if got, want := poolSig(o.rep), poolSig(want); got != want {
					t.Errorf("clustered report diverges from full pairwise:\n--- clustered\n%s--- pairwise\n%s", got, want)
				}
				if got := o.compareDerived > 0; got != sc.derived {
					t.Errorf("digest facts answered %d components, want some: %v", o.compareDerived, sc.derived)
				}

				// Fresh copies of every pair's representatives.
				plain := NewChecker(Config{})
				fresh := make([]*fetched, len(o.clusters))
				for cid, cl := range o.clusters {
					g := e.grp.leader(cl.grp)
					fresh[cid] = plain.fetchAndParse(targets[g].Handle, targets[g].Name, module, nil)
					defer plain.releaseFetched(fresh[cid])
				}
				var costs, computed []time.Duration
				for a := range o.clusters {
					for b := a + 1; b < len(o.clusters); b++ {
						mm, cost, derived := plain.compare(fresh[a], fresh[b])
						if derived != 0 {
							t.Fatalf("fresh copies answered %d components from digest facts", derived)
						}
						if got := o.mismatches(a, b); !slices.Equal(got, mm) {
							t.Errorf("clusters %d and %d: mismatches %v, fresh copies %v", a, b, got, mm)
						}
						if o.clusters[a].key == o.clusters[b].key {
							continue // one key: a match no comparison runs for
						}
						if prevKeys[o.clusters[a].key] && prevKeys[o.clusters[b].key] {
							cost = CostCASLookup
						} else {
							computed = append(computed, cost)
						}
						costs = append(costs, cost)
					}
				}
				wantCompare := listSchedule(len(costs), func(k int) time.Duration { return costs[k] }, e.c.stageWorkers(), nil)
				if o.rep.Stages.Compare != wantCompare {
					t.Errorf("compare stage took %v, fresh comparisons %v", o.rep.Stages.Compare, wantCompare)
				}
				if parallel {
					return
				}
				// Sequentially the compared pairs are charged last, in
				// order, and the Checker's work is the digest and compare
				// stages plus one store lookup per VM that hit.
				if tail := runCharges[max(0, len(runCharges)-len(computed)):]; !slices.Equal(tail, computed) {
					t.Errorf("last charges %v, fresh comparisons %v", tail, computed)
				}
				hits := time.Duration(0)
				if sc.store {
					hits = time.Duration(len(targets)-1) * CostCASLookup
				}
				if got, want := o.rep.Timing.Checker, o.rep.Stages.Digest+o.rep.Stages.Compare+hits; got != want {
					t.Errorf("Checker work %v, want digests + comparisons + lookups = %v", got, want)
				}
			})
		}
	}
}

// TestDuplicateSectionNames renames alpha.sys's .rdata to .text on the
// disk every VM boots from, so each copy has two different sections named
// .text. Components pair by name and occurrence, so the clustered engine,
// the full-pairwise oracle and CheckModule all find every copy clean, and
// report it identically.
func TestDuplicateSectionNames(t *testing.T) {
	const module = "alpha.sys"
	disk := testDisk(t)
	img := disk[module]
	rva := sectionHeaderRVA(t, img, ".rdata")
	copy(img[rva:rva+8], ".text\x00\x00\x00")

	boot := func() []Target {
		_, targets := testPoolFrom(t, 5, disk)
		return targets
	}
	clustered, err := NewChecker(Config{}).CheckPool(module, boot())
	if err != nil {
		t.Fatal(err)
	}
	pairwise, err := NewChecker(Config{FullPairwise: true}).CheckPool(module, boot())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := poolSig(clustered), poolSig(pairwise); got != want {
		t.Errorf("clustered report diverges from full pairwise:\n--- clustered\n%s--- pairwise\n%s", got, want)
	}
	targets := boot()
	c := NewChecker(Config{})
	for i, tg := range targets {
		peers := append(slices.Clone(targets[:i]), targets[i+1:]...)
		r, err := c.CheckModule(module, tg, peers)
		if err != nil {
			t.Fatal(err)
		}
		texts := 0
		f := c.fetchAndParse(tg.Handle, tg.Name, module, nil)
		for _, comp := range f.parsed.Components {
			if comp.Name == ".text" {
				texts++
			}
		}
		c.releaseFetched(f)
		if texts != 2 {
			t.Fatalf("%s: %d sections named .text, want 2", tg.Name, texts)
		}
		if r.Verdict != VerdictClean {
			t.Errorf("CheckModule on %s: %v, mismatches %v", tg.Name, r.Verdict, r.MismatchedComponents())
		}
		want := clustered.At(i)
		if r.Verdict != want.Verdict || r.Successes != want.Successes || r.Comparisons != want.Comparisons ||
			r.Base != want.Base || !reflect.DeepEqual(r.Components, want.Components) ||
			!reflect.DeepEqual(r.Pairs, clustered.Pairs(tg.Name)) {
			t.Errorf("CheckModule on %s diverges from the pool check:\n--- CheckModule\n%+v\n--- CheckPool\n%+v %+v",
				tg.Name, r, want, clustered.Pairs(tg.Name))
		}
	}
	if len(clustered.Flagged)+len(clustered.Inconclusive)+len(clustered.Errored) != 0 {
		t.Errorf("clustered pool check flagged %v, inconclusive %v, errored %v",
			clustered.Flagged, clustered.Inconclusive, clustered.Errored)
	}
}
