package modchecker

import (
	"testing"
)

func TestScannerCleanSweep(t *testing.T) {
	cloud := testCloud(t, 4, 71)
	sc := cloud.NewScanner()
	rep, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("clean cloud raised alerts: %+v", rep.Alerts)
	}
	if rep.ModulesChecked != 7 {
		t.Errorf("checked %d modules", rep.ModulesChecked)
	}
	if rep.Sweep != 1 || sc.Sweeps() != 1 {
		t.Errorf("sweep counter = %d/%d", rep.Sweep, sc.Sweeps())
	}
	if rep.Simulated <= 0 {
		t.Errorf("simulated duration = %v", rep.Simulated)
	}
}

func TestScannerFindsInfection(t *testing.T) {
	cloud := testCloud(t, 4, 73)
	if err := InfectPreset(cloud, "Dom3", "tcpirphook"); err != nil {
		t.Fatal(err)
	}
	rep, err := cloud.NewScanner().Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Alerts) != 1 {
		t.Fatalf("alerts = %+v", rep.Alerts)
	}
	a := rep.Alerts[0]
	if a.Module != "tcpip.sys" || a.VM != "Dom3" || a.Verdict != VerdictAltered {
		t.Errorf("alert = %+v", a)
	}
	if len(a.Components) != 1 || a.Components[0] != ".text" {
		t.Errorf("components = %v", a.Components)
	}
}

func TestScannerMultipleInfections(t *testing.T) {
	cloud := testCloud(t, 5, 79)
	if err := InfectPreset(cloud, "Dom1", "opcode-patch"); err != nil {
		t.Fatal(err)
	}
	if err := InfectPreset(cloud, "Dom4", "stub-patch"); err != nil {
		t.Fatal(err)
	}
	rep, err := cloud.NewScanner().Sweep()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, a := range rep.Alerts {
		got[a.Module] = a.VM
	}
	if got["hal.dll"] != "Dom1" || got["dummy.sys"] != "Dom4" {
		t.Errorf("alerts = %+v", rep.Alerts)
	}
}

func TestScannerSetModules(t *testing.T) {
	cloud := testCloud(t, 3, 83)
	if err := InfectPreset(cloud, "Dom2", "opcode-patch"); err != nil {
		t.Fatal(err)
	}
	sc := cloud.NewScanner()
	sc.SetModules([]string{"http.sys"}) // scan only a clean module
	rep, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ModulesChecked != 1 || !rep.Clean() {
		t.Errorf("report = %+v", rep)
	}
	sc.SetModules([]string{"hal.dll"})
	rep, err = sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || rep.Sweep != 2 {
		t.Errorf("report = %+v", rep)
	}
}

func TestScannerDetectThenRevertThenClean(t *testing.T) {
	cloud := testCloud(t, 3, 89)
	dom := cloud.Domain("Dom2")
	if err := dom.TakeSnapshot("clean"); err != nil {
		t.Fatal(err)
	}
	if err := InfectPreset(cloud, "Dom2", "opcode-patch"); err != nil {
		t.Fatal(err)
	}
	sc := cloud.NewScanner()
	rep, _ := sc.Sweep()
	if rep.Clean() {
		t.Fatal("infection not found")
	}
	if err := dom.Revert("clean"); err != nil {
		t.Fatal(err)
	}
	rep, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("post-revert sweep still alerts: %+v", rep.Alerts)
	}
}

func TestScannerParallel(t *testing.T) {
	cloud := testCloud(t, 4, 97)
	if err := InfectPreset(cloud, "Dom1", "rustock.b"); err != nil {
		t.Fatal(err)
	}
	rep, err := cloud.NewScanner(WithParallel()).Sweep()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range rep.Alerts {
		if a.Module == "ntfs.sys" && a.VM == "Dom1" {
			found = true
		}
	}
	if !found {
		t.Errorf("parallel sweep missed rustock.b: %+v", rep.Alerts)
	}
}

// TestNewScannerLeavesCallerOptions: the scanner adds its own option to the
// caller's list and must not write it into the caller's spare capacity.
func TestNewScannerLeavesCallerOptions(t *testing.T) {
	opts := make([]CheckerOption, 1, 2)
	opts[0] = WithParallel()
	testCloud(t, 2, 71).NewScanner(opts...)
	if spare := opts[:2]; spare[1] != nil {
		t.Error("NewScanner appended into the caller's option slice")
	}
}
