package modchecker

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"modchecker/internal/report"
)

// TestPoolReportGolden byte-compares the pool renderings of every module
// on the E1–E4 infected 15-VM cloud with testdata/poolreport.golden: the
// WritePoolJSON output and the verbose WritePoolText output of CheckPool,
// once clustered and once WithFullPairwise, each on a fresh cloud. Both
// renderings list every VM of the pool, clean ones included.
func TestPoolReportGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, path := range []struct {
		name string
		opts []CheckerOption
	}{
		{"clustered", nil},
		{"pairwise", []CheckerOption{WithFullPairwise()}},
	} {
		checker := infectedCloud(t, 42).NewChecker(path.opts...)
		mods, err := checker.ListModules("Dom1")
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mods {
			rep, err := checker.CheckPool(m.Name)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "== %s %s json\n", path.name, m.Name)
			if err := report.WritePoolJSON(&buf, rep); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "== %s %s text\n", path.name, m.Name)
			if err := report.WritePoolText(&buf, rep, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	golden := filepath.Join("testdata", "poolreport.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("pool renderings differ from %s:\n got:\n%s", golden, buf.Bytes())
	}
}
