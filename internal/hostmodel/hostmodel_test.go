package hostmodel

import (
	"testing"
	"testing/quick"
	"time"
)

func TestLookupKnownHosts(t *testing.T) {
	for _, name := range Names() {
		m, err := Lookup(name)
		if err != nil {
			t.Fatalf("lookup %q: %v", name, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("catalog model %q invalid: %v", name, err)
		}
	}
}

func TestLookupUnknownHost(t *testing.T) {
	if _, err := Lookup("cray-xk7"); err == nil {
		t.Fatal("expected error for unknown host")
	}
}

func TestLookupReturnsCopy(t *testing.T) {
	a, _ := Lookup("xsede-vm")
	a.MsgCost = time.Hour
	b, _ := Lookup("xsede-vm")
	if b.MsgCost == time.Hour {
		t.Fatal("Lookup returned a shared pointer; catalog mutated")
	}
}

func TestTitanLoginFasterThanVM(t *testing.T) {
	vm, _ := Lookup("xsede-vm")
	login, _ := Lookup("titan-login")
	if login.MsgCost >= vm.MsgCost {
		t.Fatalf("titan login MsgCost %v not faster than VM %v", login.MsgCost, vm.MsgCost)
	}
	if login.SpawnCost >= vm.SpawnCost {
		t.Fatal("titan login SpawnCost not faster than VM")
	}
	if login.TeardownCost >= vm.TeardownCost {
		t.Fatal("titan login TeardownCost not faster than VM")
	}
	if login.MgmtBase >= vm.MgmtBase {
		t.Fatal("titan login MgmtBase not faster than VM")
	}
	// Calibration: the paper reports ≈10 s management overhead on the VM
	// and ≈3 s on the Titan login node for 16-task applications.
	if vm.MgmtBase < 8*time.Second || vm.MgmtBase > 12*time.Second {
		t.Fatalf("VM MgmtBase %v outside the paper's ≈10 s band", vm.MgmtBase)
	}
	if login.MgmtBase < 2*time.Second || login.MgmtBase > 4*time.Second {
		t.Fatalf("login MgmtBase %v outside the paper's ≈3 s band", login.MgmtBase)
	}
}

func TestForCI(t *testing.T) {
	login, _ := Lookup("titan-login")
	if m := ForCI("titan"); *m != *login {
		t.Fatalf("ForCI(titan) = %+v, want titan-login %+v", m, login)
	}
	vm, _ := Lookup("xsede-vm")
	for _, ci := range []string{"supermic", "stampede", "comet"} {
		if m := ForCI(ci); *m != *vm {
			t.Fatalf("ForCI(%s) = %+v, want xsede-vm %+v", ci, m, vm)
		}
	}
}

func TestEffectiveMsgCostBelowThreshold(t *testing.T) {
	m, _ := Lookup("xsede-vm")
	if got := m.EffectiveMsgCost(16); got != m.MsgCost {
		t.Fatalf("below-threshold cost %v != base %v", got, m.MsgCost)
	}
	if got := m.EffectiveMsgCost(m.StrainThreshold); got != m.MsgCost {
		t.Fatalf("at-threshold cost %v != base %v", got, m.MsgCost)
	}
}

func TestEffectiveMsgCostStrains(t *testing.T) {
	m, _ := Lookup("xsede-vm")
	at := m.EffectiveMsgCost(2048)
	above := m.EffectiveMsgCost(4096)
	if above <= at {
		t.Fatalf("strained cost %v not above base %v", above, at)
	}
	// Doubling the threshold adds StrainFactor * MsgCost.
	want := m.MsgCost + time.Duration(float64(m.MsgCost)*m.StrainFactor)
	if above != want {
		t.Fatalf("strained cost = %v, want %v", above, want)
	}
}

func TestNullModelIsFree(t *testing.T) {
	m := Null()
	if m.MsgCost != 0 || m.SpawnCost != 0 || m.TeardownCost != 0 {
		t.Fatalf("null model has nonzero costs: %+v", m)
	}
	if m.EffectiveMsgCost(1<<20) != 0 {
		t.Fatal("null model strains")
	}
}

func TestValidateRejectsNegative(t *testing.T) {
	m := &Model{MsgCost: -1}
	if err := m.Validate(); err == nil {
		t.Fatal("negative MsgCost accepted")
	}
	m2 := &Model{StrainFactor: -0.5}
	if err := m2.Validate(); err == nil {
		t.Fatal("negative StrainFactor accepted")
	}
}

// Property: effective message cost is monotonically non-decreasing in the
// number of concurrent tasks.
func TestEffectiveMsgCostMonotone(t *testing.T) {
	m, _ := Lookup("xsede-vm")
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return m.EffectiveMsgCost(x) <= m.EffectiveMsgCost(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
