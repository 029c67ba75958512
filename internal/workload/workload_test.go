package workload

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/domain"
)

func TestSPECSuite(t *testing.T) {
	s := SPECCPU2006()
	if len(s.Workloads) != 29 {
		t.Fatalf("SPEC CPU2006 has %d benchmarks, want 29", len(s.Workloads))
	}
	// Fig 7 sorts ascending by performance scalability.
	for i := 1; i < len(s.Workloads); i++ {
		if s.Workloads[i].Scalability <= s.Workloads[i-1].Scalability {
			t.Errorf("suite not ascending at %s", s.Workloads[i].Name)
		}
	}
	for _, w := range s.Workloads {
		if w.Type != SingleThread {
			t.Errorf("%s: type %v", w.Name, w.Type)
		}
		if !(w.AR > 0.2 && w.AR <= 1) || !(w.Scalability > 0 && w.Scalability <= 1) {
			t.Errorf("%s: AR %g scal %g out of range", w.Name, w.AR, w.Scalability)
		}
	}
	mean := s.MeanScalability()
	if mean < 0.6 || mean > 0.8 {
		t.Errorf("mean scalability %.2f, want ~0.7", mean)
	}
	if s.Names()[0] != "433.milc" || s.Names()[28] != "416.gamess" {
		t.Error("Fig 7 ordering endpoints wrong")
	}
}

func Test3DMarkSuite(t *testing.T) {
	s := ThreeDMark06()
	if len(s.Workloads) != 4 {
		t.Fatalf("3DMark06 has %d tests, want 4", len(s.Workloads))
	}
	for _, w := range s.Workloads {
		if w.Type != Graphics {
			t.Errorf("%s: type %v", w.Name, w.Type)
		}
	}
}

func TestPowerVirus(t *testing.T) {
	v := PowerVirus(MultiThread)
	if v.AR != 1 || v.Scalability != 1 {
		t.Error("power virus must have AR=1")
	}
}

func TestTDPScenarioBounds(t *testing.T) {
	plat := domain.NewClientPlatform()
	if _, err := TDPScenario(plat, 3, MultiThread, 0.6); err == nil {
		t.Error("TDP below range accepted")
	}
	if _, err := TDPScenario(plat, 60, MultiThread, 0.6); err == nil {
		t.Error("TDP above range accepted")
	}
	if _, err := TDPScenario(plat, math.NaN(), MultiThread, 0.6); err == nil {
		t.Error("NaN TDP accepted")
	}
	if _, err := TDPScenario(plat, 18, MultiThread, 0); err == nil {
		t.Error("zero AR accepted")
	}
	if _, err := TDPScenario(plat, 18, BatteryLife, 0.5); err == nil {
		t.Error("battery-life type accepted by TDPScenario")
	}
}

func TestTDPScenarioShape(t *testing.T) {
	plat := domain.NewClientPlatform()
	// Nominal power grows with TDP for every workload type.
	for _, wt := range Types() {
		prev := 0.0
		for _, tdp := range StandardTDPs() {
			s, err := TDPScenario(plat, tdp, wt, 0.6)
			if err != nil {
				t.Fatal(err)
			}
			total := s.TotalNominal()
			if total <= prev {
				t.Errorf("%v: nominal %g at %gW not above %g", wt, total, tdp, prev)
			}
			prev = total
		}
	}
	// ST powers one core, MT two, graphics powers GFX.
	st, _ := TDPScenario(plat, 18, SingleThread, 0.6)
	if st.Loads[domain.Core1].Active() {
		t.Error("ST should gate core1")
	}
	mt, _ := TDPScenario(plat, 18, MultiThread, 0.6)
	if !mt.Loads[domain.Core1].Active() {
		t.Error("MT should power core1")
	}
	gfx, _ := TDPScenario(plat, 18, Graphics, 0.6)
	if !gfx.Loads[domain.GFX].Active() {
		t.Error("graphics should power GFX")
	}
	// §7.1: graphics workloads run the LLC above the cores' voltage.
	if !(gfx.Loads[domain.LLC].VNom > gfx.Loads[domain.Core0].VNom) {
		t.Error("graphics LLC voltage should exceed core voltage")
	}
	// 4W cores nominal ~0.6W (Table 2 lower bound).
	s4, _ := TDPScenario(plat, 4, MultiThread, 0.6)
	cores := s4.Loads[domain.Core0].PNom + s4.Loads[domain.Core1].PNom
	if math.Abs(cores-0.6) > 0.05 {
		t.Errorf("4W cores nominal %.2f, want 0.6", cores)
	}
}

func TestCStateScenario(t *testing.T) {
	plat := domain.NewClientPlatform()
	// §5 worked example: C0MIN ~2.5W, C2 1.2W, C8 0.13W.
	c0 := CStateScenario(plat, domain.C0MIN).TotalNominal()
	if c0 < 2.1 || c0 > 2.9 {
		t.Errorf("C0MIN nominal %.2fW, want ~2.5W", c0)
	}
	if got := CStateScenario(plat, domain.C2).TotalNominal(); math.Abs(got-1.2) > 1e-9 {
		t.Errorf("C2 nominal %.3f, want 1.2", got)
	}
	if got := CStateScenario(plat, domain.C8).TotalNominal(); math.Abs(got-0.13) > 1e-9 {
		t.Errorf("C8 nominal %.3f, want 0.13", got)
	}
}

func TestBatteryWorkloads(t *testing.T) {
	ws := BatteryLifeWorkloads()
	if len(ws) != 4 {
		t.Fatalf("%d battery workloads, want 4", len(ws))
	}
	// §7.1 residencies: 10/20/30/40% C0MIN, each summing to 1.
	wantC0 := []float64{0.10, 0.20, 0.30, 0.40}
	for i, w := range ws {
		if w.Residency[domain.C0MIN] != wantC0[i] {
			t.Errorf("%s: C0MIN residency %g, want %g", w.Name, w.Residency[domain.C0MIN], wantC0[i])
		}
		var sum float64
		for _, r := range w.Residency {
			sum += r
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: residencies sum to %g", w.Name, sum)
		}
	}
}

func TestBatteryAveragePower(t *testing.T) {
	plat := domain.NewClientPlatform()
	w := BatteryLifeWorkloads()[0] // video playback
	// With perfect conversion the average power is the residency-weighted
	// nominal power: 0.1*2.5 + 0.05*1.2 + 0.85*0.13 ≈ 0.42W.
	got := w.AveragePower(plat, func(domain.CState) float64 { return 1 })
	if got < 0.38 || got > 0.46 {
		t.Errorf("ideal-PDN video playback power %.3fW, want ~0.42W", got)
	}
	// A PDN at 80% everywhere costs exactly 1/0.8 more.
	lossy := w.AveragePower(plat, func(domain.CState) float64 { return 0.8 })
	if math.Abs(lossy-got/0.8) > 1e-9 {
		t.Errorf("ETEE weighting broken: %g vs %g", lossy, got/0.8)
	}
}

func TestTraceValidate(t *testing.T) {
	if err := (Trace{Name: "empty"}).Validate(); err == nil {
		t.Error("empty trace accepted")
	}
	bad := Trace{Name: "bad", Phases: []Phase{{Duration: -1, CState: domain.C0, AR: 0.5}}}
	if err := bad.Validate(); err == nil {
		t.Error("negative duration accepted")
	}
	bad = Trace{Name: "bad", Phases: []Phase{{Duration: 1, CState: domain.C0, AR: 0}}}
	if err := bad.Validate(); err == nil {
		t.Error("active phase without AR accepted")
	}
	good := SteadyTrace("ok", MultiThread, 0.5, 1)
	if err := good.Validate(); err != nil {
		t.Errorf("steady trace rejected: %v", err)
	}
	if good.Duration() != 1 {
		t.Errorf("duration %g", good.Duration())
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(7).Mixed("a", MultiThread, 50, 0.3, 0.8, 0.2)
	b := NewGenerator(7).Mixed("b", MultiThread, 50, 0.3, 0.8, 0.2)
	if len(a.Phases) != len(b.Phases) {
		t.Fatal("phase count differs")
	}
	for i := range a.Phases {
		if a.Phases[i] != b.Phases[i] {
			t.Fatalf("phase %d differs between same-seed runs", i)
		}
	}
	if err := a.Validate(); err != nil {
		t.Errorf("generated trace invalid: %v", err)
	}
}

func TestGeneratorARBounds(t *testing.T) {
	f := func(seed int64) bool {
		tr := NewGenerator(seed).Mixed("t", Graphics, 40, 0.3, 0.8, 0.3)
		for _, ph := range tr.Phases {
			if ph.CState == domain.C0 && (ph.AR < 0.3-1e-9 || ph.AR > 0.8+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBatteryTrace(t *testing.T) {
	w := BatteryLifeWorkloads()[0]
	tr := BatteryTrace(w, 3, 1.0/60)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.Duration()-3.0/60) > 1e-9 {
		t.Errorf("trace duration %g, want 3 frames at 60fps", tr.Duration())
	}
}

func TestValidationCorpus(t *testing.T) {
	c := ValidationCorpus(5)
	if len(c) != 15 {
		t.Fatalf("corpus size %d, want 15 (3 types x 5)", len(c))
	}
	for _, pt := range c {
		if pt.AR < 0.4-1e-9 || pt.AR > 0.8+1e-9 {
			t.Errorf("corpus AR %g outside Fig 4's 40-80%%", pt.AR)
		}
	}
}

func TestPerfCluster(t *testing.T) {
	plat := domain.NewClientPlatform()
	cpu := PerfCluster(plat, 4, MultiThread)
	if len(cpu) != 2 || cpu[0].Kind != domain.Core0 || cpu[1].Kind != domain.LLC {
		t.Errorf("CPU cluster = %v", cpu)
	}
	gfx := PerfCluster(plat, 4, Graphics)
	if len(gfx) != 2 || gfx[0].Kind != domain.GFX {
		t.Errorf("GFX cluster = %v", gfx)
	}
	if cpu[0].F0 != CPUDesignFreq(4) {
		t.Error("cluster design frequency mismatch")
	}
}

func TestTypeString(t *testing.T) {
	if SingleThread.String() != "Single-Thread" || BatteryLife.String() != "Battery-Life" {
		t.Error("Type.String mismatch")
	}
	if len(Types()) != 3 {
		t.Error("Types() should list the three Fig 4 classes")
	}
}

func TestParseType(t *testing.T) {
	for s, want := range map[string]Type{
		"Multi-Thread": MultiThread, "multi-thread": MultiThread,
		"MultiThread": MultiThread, "graphics": Graphics,
		"single-thread": SingleThread, "battery-life": BatteryLife,
	} {
		got, err := ParseType(s)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseType("mining"); err == nil {
		t.Error("ParseType accepted an unknown type")
	}
}
