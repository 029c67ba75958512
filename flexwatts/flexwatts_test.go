package flexwatts_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"

	"repro/flexwatts"
)

var ctx = context.Background()

func newClient(t *testing.T) *flexwatts.Client {
	t.Helper()
	c, err := flexwatts.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestModeSelection(t *testing.T) {
	c := newClient(t)
	low, err := c.Evaluate(ctx, flexwatts.Point{TDP: 4, Workload: flexwatts.MultiThread, AR: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if low.Mode != flexwatts.LDOMode {
		t.Errorf("4W should select LDO-Mode, got %v", low.Mode)
	}
	if low.PDN != flexwatts.FlexWatts {
		t.Errorf("default PDN should be FlexWatts, got %v", low.PDN)
	}
	high, err := c.Evaluate(ctx, flexwatts.Point{TDP: 50, Workload: flexwatts.MultiThread, AR: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if high.Mode != flexwatts.IVRMode {
		t.Errorf("50W MT should select IVR-Mode, got %v", high.Mode)
	}
}

func TestBeatsIVRAtLowTDP(t *testing.T) {
	c := newClient(t)
	pt := flexwatts.Point{TDP: 4, Workload: flexwatts.MultiThread, AR: 0.6}
	ivr, err := c.EvaluateKind(ctx, flexwatts.IVR, pt)
	if err != nil {
		t.Fatal(err)
	}
	if ivr.Mode != flexwatts.ModeNone {
		t.Errorf("static PDN result carries mode %v", ivr.Mode)
	}
	flex, err := c.Evaluate(ctx, pt)
	if err != nil {
		t.Fatal(err)
	}
	if !(flex.ETEE > ivr.ETEE+0.05) {
		t.Errorf("FlexWatts %.3f should beat IVR %.3f by >5%% at 4W", flex.ETEE, ivr.ETEE)
	}
}

func TestEvaluateModeForced(t *testing.T) {
	c := newClient(t)
	pt := flexwatts.Point{TDP: 4, Workload: flexwatts.MultiThread, AR: 0.6}
	ri, err := c.EvaluateMode(ctx, pt, flexwatts.IVRMode)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := c.EvaluateMode(ctx, pt, flexwatts.LDOMode)
	if err != nil {
		t.Fatal(err)
	}
	if !(rl.ETEE > ri.ETEE) {
		t.Error("forced-mode evaluation disagrees with mode selection at 4W")
	}
	if _, err := c.EvaluateMode(ctx, pt, flexwatts.ModeNone); err == nil {
		t.Error("ModeNone should not be evaluable")
	}
}

func TestCStatePoint(t *testing.T) {
	c := newClient(t)
	r, err := c.Evaluate(ctx, flexwatts.Point{CState: flexwatts.C8})
	if err != nil {
		t.Fatal(err)
	}
	if !(r.ETEE > 0.7) {
		t.Errorf("C8 ETEE %.3f implausible", r.ETEE)
	}
	if r.CState != flexwatts.C8 {
		t.Errorf("result cstate %v", r.CState)
	}
}

func TestEvaluateBatchMatchesSerial(t *testing.T) {
	c := newClient(t)
	pts := []flexwatts.Point{
		{PDN: flexwatts.IVR, TDP: 18, Workload: flexwatts.MultiThread, AR: 0.6},
		{PDN: flexwatts.LDO, TDP: 4, Workload: flexwatts.SingleThread, AR: 0.5},
		{TDP: 25, Workload: flexwatts.Graphics, AR: 0.45},
		{PDN: flexwatts.MBVR, CState: flexwatts.C6},
	}
	batch, err := c.EvaluateBatch(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(pts) {
		t.Fatalf("%d results for %d points", len(batch), len(pts))
	}
	for i, pt := range pts {
		serial, err := c.Evaluate(ctx, pt)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != serial {
			t.Errorf("point %d: batch %+v != serial %+v", i, batch[i], serial)
		}
	}
}

func TestEvaluateBatchReportsInvalidPoint(t *testing.T) {
	c, err := flexwatts.NewClient(flexwatts.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	pts := []flexwatts.Point{
		{PDN: flexwatts.IVR, TDP: 18, Workload: flexwatts.MultiThread, AR: 0.6},
		{PDN: flexwatts.IVR, TDP: 18, Workload: flexwatts.MultiThread, AR: 7},
		{PDN: flexwatts.IVR, TDP: 18},
	}
	_, err = c.EvaluateBatch(ctx, pts)
	if !errors.Is(err, flexwatts.ErrInvalidPoint) {
		t.Fatalf("err = %v, want ErrInvalidPoint", err)
	}
}

// TestEvaluateBatchCancelled is the cancellation smoke: a batch submitted
// with an already-cancelled context must return promptly with
// context.Canceled, not evaluate 4096 points first.
func TestEvaluateBatchCancelled(t *testing.T) {
	c := newClient(t)
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts := make([]flexwatts.Point, 4096)
	for i := range pts {
		pts[i] = flexwatts.Point{PDN: flexwatts.IVR, TDP: 18, Workload: flexwatts.MultiThread, AR: 0.6}
	}
	start := time.Now()
	_, err := c.EvaluateBatch(cctx, pts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancelled batch took %v", d)
	}
	if _, err := c.Evaluate(cctx, pts[0]); !errors.Is(err, context.Canceled) {
		t.Errorf("Evaluate on cancelled ctx: %v", err)
	}
}

func TestInvalidPoints(t *testing.T) {
	c := newClient(t)
	cases := map[string]flexwatts.Point{
		"no workload":        {TDP: 18},
		"bad ar":             {TDP: 18, Workload: flexwatts.MultiThread, AR: 1.5},
		"tiny ar":            {PDN: flexwatts.MBVR, TDP: 50, Workload: flexwatts.MultiThread, AR: 1e-83}, // overflows MBVR's peak-current term
		"unknown cstate":     {CState: flexwatts.CState(42)},
		"unknown workload":   {TDP: 18, Workload: flexwatts.WorkloadType(42), AR: 0.5},
		"bad tdp":            {TDP: 900, Workload: flexwatts.MultiThread, AR: 0.5},
		"idle with workload": {CState: flexwatts.C6, Workload: flexwatts.MultiThread, AR: 0.6},
	}
	for name, pt := range cases {
		if _, err := c.Evaluate(ctx, pt); !errors.Is(err, flexwatts.ErrInvalidPoint) {
			t.Errorf("%s: err = %v, want ErrInvalidPoint", name, err)
		}
	}
}

// TestNonFiniteTDPRejected pins that a NaN or infinite TDP is an invalid
// point on every PDN, for active and idle points alike, instead of a NaN
// result with a nil error.
func TestNonFiniteTDPRejected(t *testing.T) {
	c := newClient(t)
	for _, tdp := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, k := range flexwatts.AllKinds() {
			for _, pt := range []flexwatts.Point{
				{PDN: k, TDP: flexwatts.Watt(tdp), Workload: flexwatts.MultiThread, AR: 0.5},
				{PDN: k, TDP: flexwatts.Watt(tdp), CState: flexwatts.C6},
			} {
				res, err := c.Evaluate(ctx, pt)
				if !errors.Is(err, flexwatts.ErrInvalidPoint) {
					t.Errorf("Evaluate(%+v) = ETEE %g, err %v; want ErrInvalidPoint", pt, res.ETEE, err)
				}
			}
		}
	}
}

// TestParseEnumsAllocFree pins the canonical-spelling fast paths: every
// name String renders parses back with no allocation.
func TestParseEnumsAllocFree(t *testing.T) {
	check := func(name string, parse func() error) {
		t.Helper()
		if avg := testing.AllocsPerRun(100, func() {
			if err := parse(); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("parsing %q: %.1f allocs/op, want 0", name, avg)
		}
	}
	for _, wt := range append(flexwatts.WorkloadTypes(), flexwatts.BatteryLife, flexwatts.WorkloadUnset) {
		s := wt.String()
		check(s, func() error { _, err := flexwatts.ParseWorkloadType(s); return err })
	}
	for _, m := range append(flexwatts.Modes(), flexwatts.ModeNone) {
		s := m.String()
		check(s, func() error { _, err := flexwatts.ParseMode(s); return err })
	}
	for _, k := range flexwatts.AllKinds() {
		s := k.String()
		check(s, func() error { _, err := flexwatts.ParseKind(s); return err })
	}
	for _, c := range flexwatts.CStates() {
		s := c.String()
		check(s, func() error { _, err := flexwatts.ParseCState(s); return err })
	}
}

// TestInvalidParams pins NewClient's parameter check: every field whose
// bad value would otherwise panic while the regulators are built or a
// point is evaluated fails with ErrInvalidParams instead.
func TestInvalidParams(t *testing.T) {
	cases := map[string]func(*flexwatts.Params){
		"zero PSU":              func(p *flexwatts.Params) { p.PSU = 0 },
		"negative PSU":          func(p *flexwatts.Params) { p.PSU = -7.2 },
		"infinite PSU":          func(p *flexwatts.Params) { p.PSU = math.Inf(1) },
		"NaN VIN level":         func(p *flexwatts.Params) { p.VINLevel = math.NaN() },
		"zero share penalty":    func(p *flexwatts.Params) { p.FlexSharePenalty = 0 },
		"zero IVR Iccmax":       func(p *flexwatts.Params) { p.IVRIccmax = 0 },
		"negative SA Iccmax":    func(p *flexwatts.Params) { p.SAIccmax = -1 },
		"infinite VIN Iccmax":   func(p *flexwatts.Params) { p.VINIccmax = math.Inf(1) },
		"negative load-line":    func(p *flexwatts.Params) { p.CoresLL = -0.001 },
		"NaN load-line":         func(p *flexwatts.Params) { p.IOLL = math.NaN() },
		"negative guardband":    func(p *flexwatts.Params) { p.TOBLDO = -0.01 },
		"infinite guardband":    func(p *flexwatts.Params) { p.TOBIVR = math.Inf(1) },
		"negative gate R":       func(p *flexwatts.Params) { p.RPG = -0.001 },
		"NaN gate R":            func(p *flexwatts.Params) { p.RPG = math.NaN() },
		"negative IVR LL":       func(p *flexwatts.Params) { p.IVRInLL = -1 },
		"infinite GFX Iccmax":   func(p *flexwatts.Params) { p.GfxIccmax = math.Inf(1) },
		"negative IO Iccmax":    func(p *flexwatts.Params) { p.IOIccmax = -4 },
		"zero cores Iccmax":     func(p *flexwatts.Params) { p.CoresIccmax = 0 },
		"negative MBVR band":    func(p *flexwatts.Params) { p.TOBMBVR = -0.02 },
		"negative LDO input LL": func(p *flexwatts.Params) { p.LDOInLL = -1 },
	}
	for name, mutate := range cases {
		p := flexwatts.DefaultParams()
		mutate(&p)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: NewClient panicked: %v", name, r)
				}
			}()
			if _, err := flexwatts.NewClient(flexwatts.WithParams(p)); !errors.Is(err, flexwatts.ErrInvalidParams) {
				t.Errorf("%s: err = %v, want ErrInvalidParams", name, err)
			}
		}()
	}
}

func TestWithOptions(t *testing.T) {
	p := flexwatts.DefaultParams()
	p.CoresLL *= 2
	c, err := flexwatts.NewClient(
		flexwatts.WithParams(p),
		flexwatts.WithWorkers(2),
		flexwatts.WithCache(false),
		flexwatts.WithPlatform(flexwatts.DefaultPlatform()),
	)
	if err != nil {
		t.Fatal(err)
	}
	if c.Params().CoresLL != p.CoresLL {
		t.Error("WithParams not applied")
	}
	base := newClient(t)
	pt := flexwatts.Point{PDN: flexwatts.MBVR, TDP: 50, Workload: flexwatts.MultiThread, AR: 0.6}
	r1, err := c.Evaluate(ctx, pt)
	if err != nil {
		t.Fatal(err)
	}
	r0, err := base.Evaluate(ctx, pt)
	if err != nil {
		t.Fatal(err)
	}
	if !(r1.ETEE < r0.ETEE) {
		t.Error("doubled load-line should reduce MBVR ETEE")
	}
}

func TestSimulateTrace(t *testing.T) {
	c := newClient(t)
	// A bursty multi-threaded trace with idle gaps, built from the public
	// vocabulary alone.
	tr := flexwatts.Trace{Name: "bursty"}
	for i := 0; i < 40; i++ {
		tr.Phases = append(tr.Phases,
			flexwatts.Phase{Duration: 0.01, Workload: flexwatts.MultiThread, AR: 0.3 + 0.5*float64(i%2)},
			flexwatts.Phase{Duration: 0.005, CState: flexwatts.C6},
		)
	}
	rep, err := c.SimulateTrace(flexwatts.FlexWatts, 18, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Energy <= 0 || rep.Duration <= 0 {
		t.Error("empty simulation report")
	}
	if rep.PDN != flexwatts.FlexWatts {
		t.Errorf("report PDN %v", rep.PDN)
	}
	stat, err := c.SimulateTrace(flexwatts.IVR, 18, tr, flexwatts.NewSensor(7))
	if err != nil {
		t.Fatal(err)
	}
	if stat.ModeSwitches != 0 || stat.ModeTime != nil {
		t.Errorf("static PDN reports hybrid state: %+v", stat)
	}
}

func TestVocabularyRoundTrips(t *testing.T) {
	for _, k := range flexwatts.AllKinds() {
		got, err := flexwatts.ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	for _, wt := range flexwatts.WorkloadTypes() {
		got, err := flexwatts.ParseWorkloadType(wt.String())
		if err != nil || got != wt {
			t.Errorf("ParseWorkloadType(%q) = %v, %v", wt.String(), got, err)
		}
	}
	for _, c := range flexwatts.CStates() {
		got, err := flexwatts.ParseCState(c.String())
		if err != nil || got != c {
			t.Errorf("ParseCState(%q) = %v, %v", c.String(), got, err)
		}
	}
	for _, m := range flexwatts.Modes() {
		got, err := flexwatts.ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if w, err := flexwatts.ParseWatt("250mW"); err != nil || w != 0.25 {
		t.Errorf("ParseWatt = %v, %v", w, err)
	}
	if _, err := flexwatts.ParseKind("XVR"); err == nil {
		t.Error("ParseKind accepted junk")
	}
}

func TestPointJSONRoundTrip(t *testing.T) {
	pt := flexwatts.Point{PDN: flexwatts.LDO, TDP: 4, Workload: flexwatts.MultiThread, AR: 0.6}
	b, err := json.Marshal(pt)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"pdn":"LDO","tdp":4,"workload":"Multi-Thread","ar":0.6}`
	if string(b) != want {
		t.Errorf("point JSON %s, want %s", b, want)
	}
	var back flexwatts.Point
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != pt {
		t.Errorf("round trip %+v != %+v", back, pt)
	}
	// Idle points omit the active fields and keep the wire vocabulary
	// case-insensitive.
	var idle flexwatts.Point
	if err := json.Unmarshal([]byte(`{"pdn":"ivr","cstate":"c6"}`), &idle); err != nil {
		t.Fatal(err)
	}
	if idle.PDN != flexwatts.IVR || idle.CState != flexwatts.C6 {
		t.Errorf("lenient parse %+v", idle)
	}
	b, err = json.Marshal(flexwatts.Point{PDN: flexwatts.IVR, CState: flexwatts.C6})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"pdn":"IVR","cstate":"C6"}` {
		t.Errorf("idle point JSON %s", b)
	}
}

func TestResultJSON(t *testing.T) {
	c := newClient(t)
	r, err := c.Evaluate(ctx, flexwatts.Point{TDP: 4, Workload: flexwatts.MultiThread, AR: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back flexwatts.Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != r {
		t.Errorf("result round trip %+v != %+v", back, r)
	}
	if back.Mode != flexwatts.LDOMode || back.Loss() <= 0 {
		t.Errorf("decoded result %+v", back)
	}
}

func TestSuites(t *testing.T) {
	spec := flexwatts.SPECCPU2006()
	if len(spec) != 29 || spec[0].Name != "433.milc" {
		t.Errorf("SPEC suite %d workloads, first %q", len(spec), spec[0].Name)
	}
	gfx := flexwatts.ThreeDMark06()
	if len(gfx) != 4 || gfx[0].Type != flexwatts.Graphics {
		t.Errorf("3DMark06 suite %+v", gfx)
	}
	pv := flexwatts.PowerVirus(flexwatts.MultiThread)
	if pv.AR != 1 || pv.Scalability != 1 {
		t.Errorf("power virus %+v", pv)
	}
}

func TestStandardTDPs(t *testing.T) {
	tdps := flexwatts.StandardTDPs()
	if len(tdps) < 5 || tdps[0] != 4 || tdps[len(tdps)-1] != 50 {
		t.Errorf("TDP grid %v", tdps)
	}
}

// TestBatteryLifePower pins the §5 worked example: video playback on a
// lossless PDN would draw ~0.5 W; real PDNs land above that, and the
// LDO-friendly PDNs beat IVR (the Fig 8(c) ordering).
func TestBatteryLifePower(t *testing.T) {
	c := newClient(t)
	bws := flexwatts.BatteryLifeWorkloads()
	if len(bws) != 4 || bws[0].Name != "Video Playback" {
		t.Fatalf("battery workloads %+v", bws)
	}
	var sum float64
	for _, res := range bws[0].Residency {
		sum += res
	}
	if !(sum > 0.999 && sum < 1.001) {
		t.Errorf("video playback residencies sum to %g", sum)
	}
	ivr, err := c.BatteryLifePower(ctx, flexwatts.IVR, bws[0])
	if err != nil {
		t.Fatal(err)
	}
	flex, err := c.BatteryLifePower(ctx, flexwatts.FlexWatts, bws[0])
	if err != nil {
		t.Fatal(err)
	}
	if !(ivr > 0.5 && ivr < 0.8) {
		t.Errorf("IVR video playback power %v implausible", ivr)
	}
	// FlexWatts (in LDO-Mode) cuts video playback power by ~11-12 % vs IVR.
	if !(float64(flex) < float64(ivr)*0.92) {
		t.Errorf("FlexWatts %v should undercut IVR %v by >8%%", flex, ivr)
	}
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.BatteryLifePower(cctx, flexwatts.IVR, bws[0]); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx: %v", err)
	}
}

// TestAllocate drives the PBM loop through the public surface: a
// higher-ETEE PDN sustains a higher core clock from the same TDP (§3.3),
// and cTDP-down lowers the sustained clock.
func TestAllocate(t *testing.T) {
	c := newClient(t)
	ivr, err := c.Allocate(ctx, flexwatts.IVR, 10, flexwatts.MultiThread, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	ldo, err := c.Allocate(ctx, flexwatts.LDO, 10, flexwatts.MultiThread, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if !(ldo.ETEE > ivr.ETEE && ldo.CoreFreq >= ivr.CoreFreq) {
		t.Errorf("LDO alloc %+v should beat IVR alloc %+v at 10W", ldo, ivr)
	}
	if !(ivr.PIn <= 10 && ldo.PIn <= 10) {
		t.Errorf("allocations exceed the TDP: IVR %g, LDO %g", ivr.PIn, ldo.PIn)
	}
	down, err := c.Allocate(ctx, flexwatts.LDO, 4, flexwatts.MultiThread, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if !(down.CoreFreq < ldo.CoreFreq) {
		t.Error("cTDP-down did not lower the sustained core clock")
	}
	if _, err := c.Allocate(ctx, flexwatts.LDO, 10, flexwatts.WorkloadUnset, 0.6); !errors.Is(err, flexwatts.ErrInvalidPoint) {
		t.Errorf("unset workload type: %v", err)
	}
	if _, err := c.Allocate(ctx, flexwatts.LDO, 10, flexwatts.MultiThread, 7); !errors.Is(err, flexwatts.ErrInvalidPoint) {
		t.Errorf("bad AR: %v", err)
	}
}

func TestTraceHelpers(t *testing.T) {
	st := flexwatts.SteadyTrace("steady", flexwatts.Graphics, 0.5, 2)
	if len(st.Phases) != 1 || st.Duration() != 2 || st.Phases[0].Workload != flexwatts.Graphics {
		t.Errorf("steady trace %+v", st)
	}
	bt := flexwatts.BatteryTrace(flexwatts.BatteryLifeWorkloads()[0], 3, 1.0/60)
	if len(bt.Phases) != 9 { // video playback has 3 resident states per frame
		t.Errorf("battery trace has %d phases, want 9", len(bt.Phases))
	}
	if d := bt.Duration(); !(d > 0.049 && d < 0.051) {
		t.Errorf("battery trace duration %g, want ~3 frames at 60Hz", d)
	}
	a := flexwatts.NewTraceGenerator(7).Mixed("m", flexwatts.MultiThread, 100, 0.3, 0.8, 0.25)
	b := flexwatts.NewTraceGenerator(7).Mixed("m", flexwatts.MultiThread, 100, 0.3, 0.8, 0.25)
	if len(a.Phases) != 100 {
		t.Fatalf("mixed trace has %d phases", len(a.Phases))
	}
	for i := range a.Phases {
		if a.Phases[i] != b.Phases[i] {
			t.Fatal("equal seeds produced different traces")
		}
	}
	idle := 0
	for _, ph := range a.Phases {
		if ph.CState != flexwatts.C0 {
			idle++
		}
	}
	if idle == 0 || idle == len(a.Phases) {
		t.Errorf("%d idle phases of %d", idle, len(a.Phases))
	}
}
