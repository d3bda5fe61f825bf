package core

import (
	"fmt"
	"sort"
)

// The paper assumes every VM in the pool runs the same module version; a
// rolling fleet update breaks that assumption mid-flight, and the plain
// majority vote would flag half the cloud. ClusterPool generalizes the
// comparison: copies are grouped into equivalence clusters (full component
// agreement after RVA normalization), so operators can tell "two
// self-consistent versions" (a rolling update) from "one VM disagrees with
// everyone" (an infection) at a glance.

// Cluster is one group of VMs whose module copies are mutually identical.
type Cluster struct {
	VMs []string
	// Representative is the VM whose copy stands for the cluster.
	Representative string
}

// Size returns the number of VMs in the cluster.
func (c *Cluster) Size() int { return len(c.VMs) }

// ClusterReport is the outcome of a version-aware pool sweep.
type ClusterReport struct {
	ModuleName string
	// Clusters sorted by size, largest first.
	Clusters []Cluster
	// MajorityCluster indexes the cluster holding a strict majority of
	// the pool, or -1 if none.
	MajorityCluster int
	// Flagged lists VMs outside the majority cluster (when one exists):
	// the paper's verdict generalized.
	Flagged []string
	// Suspicious lists singleton clusters: whether or not a majority
	// exists, a copy that matches *no other VM* is the prime infection
	// suspect — in a rolling update the legitimate versions each hold
	// several VMs.
	Suspicious []string
	// Errors records VMs that could not be checked.
	Errors map[string]error
}

// ClusterPool fetches the module from every VM and groups identical copies:
// the engine's digest clusters, merged wherever their representative
// comparison came back clean (a digest split between copies that match
// pairwise). Each digest cluster joins the first earlier group whose
// leading cluster it matches, so groups keep pool order.
//
//modsafe:charged
func (c *Checker) ClusterPool(module string, vms []Target) (*ClusterReport, error) {
	if len(vms) < 2 {
		return nil, fmt.Errorf("core: cluster check of %s needs at least 2 VMs", module)
	}
	e := c.poolEngine(vms)
	o := e.check(module)

	rep := &ClusterReport{ModuleName: module, MajorityCluster: -1, Errors: map[string]error{}}
	var clusters []Cluster
	var heads []int // leading digest cluster per group
	groupOf := make([]int, len(o.clusters))
	for cid := range o.clusters {
		groupOf[cid] = -1
		for g, h := range heads {
			if len(o.mismatches(h, cid)) == 0 {
				groupOf[cid] = g
				break
			}
		}
		if groupOf[cid] < 0 {
			groupOf[cid] = len(heads)
			heads = append(heads, cid)
			clusters = append(clusters, Cluster{Representative: vms[e.grp.leader(o.clusters[cid].grp)].Name})
		}
	}
	for i := range vms {
		vg := e.grp.group(i)
		cid := o.clusterOf[vg]
		if cid < 0 {
			rep.Errors[vms[i].Name] = o.errs[vg]
			continue
		}
		g := &clusters[groupOf[cid]]
		g.VMs = append(g.VMs, vms[i].Name)
	}
	sort.SliceStable(clusters, func(i, j int) bool { return len(clusters[i].VMs) > len(clusters[j].VMs) })
	rep.Clusters = clusters

	checked := 0
	for _, cl := range clusters {
		checked += cl.Size()
	}
	if len(clusters) > 0 && 2*clusters[0].Size() > checked {
		rep.MajorityCluster = 0
		for ci := 1; ci < len(clusters); ci++ {
			rep.Flagged = append(rep.Flagged, clusters[ci].VMs...)
		}
		sort.Strings(rep.Flagged)
	}
	// Singletons are suspicious regardless of majority: even when a
	// legitimate minority version exists, a copy agreeing with nobody
	// warrants the paper's "deeper analysis" escalation first.
	for ci, cl := range clusters {
		if cl.Size() == 1 && ci != rep.MajorityCluster {
			rep.Suspicious = append(rep.Suspicious, cl.VMs[0])
		}
	}
	sort.Strings(rep.Suspicious)
	return rep, nil
}
