// Command pdnspot evaluates a PDN architecture at one operating point and
// prints the end-to-end efficiency, power flow, and loss breakdown. It is
// built entirely on the public repro/flexwatts + repro/pdnspot surface.
//
// Usage:
//
//	pdnspot -pdn IVR -tdp 4 -workload mt -ar 0.6
//	pdnspot -pdn LDO -cstate C8
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/flexwatts"
	"repro/pdnspot"
)

// pct renders a fraction as a percentage with one decimal.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// run is the testable entry point: it parses args, evaluates, writes to the
// given streams, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pdnspot", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kindF := fs.String("pdn", "IVR", "PDN architecture: IVR, MBVR, LDO, I+MBVR")
	tdp := fs.Float64("tdp", 4, "thermal design power (W)")
	wl := fs.String("workload", "mt", "workload class: st, mt, gfx")
	ar := fs.Float64("ar", 0.6, "application ratio [0.01,1]")
	cstate := fs.String("cstate", "", "evaluate a package C-state instead (C0MIN, C2..C8)")
	validate := fs.Bool("validate", false, "also run the time-stepped reference and report accuracy")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "pdnspot:", err)
		return 1
	}

	ctx := context.Background()
	kind, err := flexwatts.ParseKind(*kindF)
	if err != nil {
		return fail(err)
	}
	ps, err := pdnspot.New()
	if err != nil {
		return fail(err)
	}

	if *cstate != "" {
		c, err := flexwatts.ParseCState(*cstate)
		if err != nil {
			return fail(err)
		}
		if c == flexwatts.C0 {
			return fail(fmt.Errorf("C0 is the active state; drop -cstate and pass -tdp/-workload/-ar instead"))
		}
		r, err := ps.EvaluateCState(ctx, kind, c)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s in %s: ETEE %s, PNom %s, PIn %s\n",
			kind, c, pct(r.ETEE), r.PNomTotal, r.PIn)
		return 0
	}

	wt, err := flexwatts.ParseWorkloadType(*wl)
	if err != nil || wt == flexwatts.WorkloadUnset {
		return fail(fmt.Errorf("unknown workload %q (st, mt, gfx)", *wl))
	}

	pt := pdnspot.Point{TDP: flexwatts.Watt(*tdp), Workload: wt, AR: *ar}
	r, err := ps.Evaluate(ctx, kind, pt)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s @ %gW TDP, %s, AR %s\n", kind, *tdp, wt, pct(*ar))
	fmt.Fprintf(stdout, "  ETEE        %s\n", pct(r.ETEE))
	fmt.Fprintf(stdout, "  PNom / PIn  %s / %s\n", r.PNomTotal, r.PIn)
	fmt.Fprintf(stdout, "  chip input  %.2fA\n", r.ChipInputCurrent)
	b := r.Breakdown
	fmt.Fprintf(stdout, "  losses: VR on-chip %s, VR off-chip %s, I2R compute %s, I2R uncore %s, guardband %s, power-gate %s\n",
		b.OnChipVR, b.OffChipVR, b.CondCompute, b.CondUncore, b.Guardband, b.PowerGate)

	if *validate {
		pred, meas, acc, err := ps.ValidateAgainstReference(ctx, kind, pt, 1)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "  validation: predicted %s, measured %s, accuracy %s\n",
			pct(pred), pct(meas), pct(acc))
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
