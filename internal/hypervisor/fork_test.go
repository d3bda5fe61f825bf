package hypervisor

import (
	"fmt"
	"testing"
)

func TestCloneFleetNamesAndSharing(t *testing.T) {
	hv := New(8)
	doms, err := hv.CloneFleet("Dom", 12, 3, testDisk(t), 16<<20, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(doms) != 12 {
		t.Fatalf("%d domains", len(doms))
	}
	for i, d := range doms {
		if want := fmt.Sprintf("Dom%d", i+1); d.Name != want {
			t.Errorf("domain %d named %q, want %q", i, d.Name, want)
		}
	}

	// Every domain — template or fork — advertises a content identity
	// (forking freezes the template's image too), and a fork shares its
	// round-robin template's identity: Dom4 forks Dom1, Dom5 Dom2, ...
	ids := make([]uint64, len(doms))
	for i, d := range doms {
		id, ok := d.Guest().Phys().ContentID()
		if !ok {
			t.Fatalf("%s has no content identity", d.Name)
		}
		ids[i] = id
	}
	for i := 3; i < 12; i++ {
		tmpl := (i - 3) % 3
		if ids[i] != ids[tmpl] {
			t.Errorf("%s id %d != template %s id %d", doms[i].Name, ids[i], doms[tmpl].Name, ids[tmpl])
		}
	}
	if ids[0] == ids[1] || ids[1] == ids[2] || ids[0] == ids[2] {
		t.Errorf("templates share an identity: %v", ids[:3])
	}

	// Each template's base layer is shared by itself plus its three forks.
	if refs := doms[0].Guest().Phys().BaseRefs(); refs != 4 {
		t.Errorf("template base refs = %d, want 4", refs)
	}
	fork := doms[3].Guest().Phys()
	if fork.PrivateFrames() != 0 {
		t.Errorf("fresh fork has %d private frames", fork.PrivateFrames())
	}
	if fork.SharedFrames() == 0 {
		t.Error("fresh fork shares no frames")
	}

	// A write diverges only the writer: its identity disappears while its
	// template and siblings keep theirs.
	if err := fork.WritePhys(0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := fork.ContentID(); ok {
		t.Error("dirtied fork still advertises a content identity")
	}
	if id, ok := doms[0].Guest().Phys().ContentID(); !ok || id != ids[0] {
		t.Error("template identity disturbed by fork's write")
	}
	if id, ok := doms[6].Guest().Phys().ContentID(); !ok || id != ids[6] {
		t.Error("sibling fork identity disturbed by fork's write")
	}
}

func TestCloneFleetFallsBackToFullBoots(t *testing.T) {
	for _, templates := range []int{0, 5, 9} {
		hv := New(8)
		doms, err := hv.CloneFleet("Dom", 5, templates, testDisk(t), 16<<20, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(doms) != 5 {
			t.Fatalf("templates=%d: %d domains", templates, len(doms))
		}
		for _, d := range doms {
			if _, ok := d.Guest().Phys().ContentID(); ok {
				t.Errorf("templates=%d: fully booted %s advertises a content identity", templates, d.Name)
			}
		}
	}
}

func TestFleetDemandAccounting(t *testing.T) {
	hv := New(4)
	doms, err := hv.CloneFleet("Dom", 12, 2, testDisk(t), 16<<20, 9)
	if err != nil {
		t.Fatal(err)
	}
	idle := hv.Slowdown()
	if idle < 1 {
		t.Fatalf("idle slowdown %v < 1", idle)
	}
	for _, d := range doms {
		d.Guest().SetLoad(1, 0, 0, 0)
	}
	loaded := hv.Slowdown()
	if loaded <= idle {
		t.Fatalf("loading 12 guests on 4 cores did not raise slowdown: idle %v, loaded %v", idle, loaded)
	}
	// Destroying domains must retire their demand share.
	for _, d := range doms[4:] {
		if err := hv.DestroyDomain(d.Name); err != nil {
			t.Fatal(err)
		}
	}
	if after := hv.Slowdown(); after >= loaded {
		t.Fatalf("destroying 8 of 12 loaded guests did not lower slowdown: %v -> %v", loaded, after)
	}
}
