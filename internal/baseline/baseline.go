// Package baseline implements the state-of-the-art approach the paper
// positions ModChecker against (Section I/II): a dictionary of
// cryptographic hashes of trusted kernel modules, as used by digitally
// signed driver schemes on Windows and Linux.
//
// The Database is built from trusted on-disk images. Verifying a loaded
// module fetches it via introspection, reverses relocations using the
// module's own .reloc table, hashes each component, and compares against
// the dictionary. Detection power on known modules equals ModChecker's —
// but every legitimate module update invalidates the dictionary and
// produces false positives until an administrator refreshes it, which is
// the maintenance burden (paper: "it is cumbersome to maintain the
// dictionary for kernel updates, third party drivers, and valid customized
// modules"). The update-scenario experiment (experiments.UpdateScenario)
// quantifies exactly this difference.
package baseline

import (
	"crypto/md5"
	"fmt"
	"sort"

	"modchecker/internal/core"
	"modchecker/internal/pe"
)

// ComponentHash is one dictionary entry: a component name and its MD5 over
// relocation-normalized bytes.
type ComponentHash struct {
	Component string
	Digest    [md5.Size]byte
}

// Database is the dictionary of trusted hashes, keyed by module file name.
type Database struct {
	modules map[string][]ComponentHash
}

// NewDatabase creates an empty dictionary.
func NewDatabase() *Database {
	return &Database{modules: make(map[string][]ComponentHash)}
}

// AddTrustedImage registers an on-disk image as the trusted reference for
// name. The image is laid out as the loader would map it at its preferred
// base, components are extracted with the same parser ModChecker uses, and
// relocatable sections are normalized to RVA form so that the stored hashes
// are load-address independent.
func (db *Database) AddTrustedImage(name string, image []byte) error {
	img, err := pe.Parse(image)
	if err != nil {
		return fmt.Errorf("baseline: trusted image %s: %w", name, err)
	}
	mem, err := img.Layout()
	if err != nil {
		return fmt.Errorf("baseline: laying out %s: %w", name, err)
	}
	hashes, err := componentHashes(name, img.Optional.ImageBase, mem, img.Optional.ImageBase)
	if err != nil {
		return err
	}
	db.modules[foldName(name)] = hashes
	return nil
}

// Modules returns the registered module names, sorted.
func (db *Database) Modules() []string {
	out := make([]string, 0, len(db.modules))
	for n := range db.modules {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Remove deletes a dictionary entry (e.g. for a retired driver).
func (db *Database) Remove(name string) {
	delete(db.modules, foldName(name))
}

// componentHashes parses a module image laid out in memory and hashes every
// component after reloc-table RVA normalization. loadBase is the address
// the copy is (notionally) loaded at; layoutBase is the base embedded in
// its absolute addresses (equal for trusted file layouts).
func componentHashes(name string, loadBase uint32, mem []byte, layoutBase uint32) ([]ComponentHash, error) {
	parsed, _, err := core.ParseModule("baseline", name, loadBase, mem)
	if err != nil {
		return nil, err
	}
	sites, err := core.NormalizeWithRelocs(parsed.Raw)
	if err != nil {
		return nil, fmt.Errorf("baseline: reloc table of %s: %w", name, err)
	}
	out := make([]ComponentHash, 0, len(parsed.Components))
	for i := range parsed.Components {
		c := &parsed.Components[i]
		data := c.Data
		if c.Normalize {
			data = core.ApplyRelocNormalization(c, sites, layoutBase)
		}
		out = append(out, ComponentHash{Component: c.Name, Digest: md5.Sum(data)})
	}
	return out, nil
}

// Result is the outcome of verifying one loaded module against the
// dictionary.
type Result struct {
	ModuleName string
	VMName     string
	// Known is false when the module has no dictionary entry at all (a
	// third-party or updated driver) — the case the paper highlights.
	Known bool
	// MismatchedComponents lists components whose hashes disagree with
	// the dictionary.
	MismatchedComponents []string
}

// OK reports whether the module verified cleanly.
func (r *Result) OK() bool { return r.Known && len(r.MismatchedComponents) == 0 }

// Verify fetches the named module from the target VM via introspection and
// checks it against the dictionary.
func (db *Database) Verify(module string, target core.Target) (*Result, error) {
	res := &Result{ModuleName: module, VMName: target.Name}
	trusted, ok := db.modules[foldName(module)]
	if !ok {
		return res, nil // unknown module: Known=false
	}
	res.Known = true

	s := core.NewSearcher(target.Introspect(), core.CopyPageWise)
	info, buf, _, err := s.FetchModule(module)
	if err != nil {
		return nil, err
	}
	// componentHashes copies every byte it keeps, so the pooled module
	// copy goes back as soon as the digests exist.
	got, err := componentHashes(module, info.Base, buf, info.Base)
	core.ReleaseModuleCopy(buf)
	if err != nil {
		return nil, err
	}
	want := make(map[string][md5.Size]byte, len(trusted))
	for _, h := range trusted {
		want[h.Component] = h.Digest
	}
	seen := make(map[string]bool, len(got))
	for _, h := range got {
		seen[h.Component] = true
		if w, ok := want[h.Component]; !ok || w != h.Digest {
			res.MismatchedComponents = append(res.MismatchedComponents, h.Component)
		}
	}
	for name := range want {
		if !seen[name] {
			res.MismatchedComponents = append(res.MismatchedComponents, name)
		}
	}
	sort.Strings(res.MismatchedComponents)
	return res, nil
}

func foldName(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}
