package experiments

import (
	"repro/flexwatts/report"
	"repro/internal/domain"
	"repro/internal/pdn"
	"repro/internal/perf"
	"repro/internal/sweep"
	"repro/internal/units"
	"repro/internal/workload"
)

func init() {
	register("fig2a", Fig2a)
	register("fig2b", Fig2b)
}

// Fig2a regenerates Fig 2(a): the additional power budget (mW) required to
// raise the CPU or GFX clock by 1 % at each TDP design point — small at low
// TDP (~tens of mW), hundreds of mW at 50 W, which is why PDN efficiency
// matters most for low-TDP parts.
func Fig2a(e *Env) (*report.Dataset, error) {
	tdps := workload.StandardTDPs()
	type cell struct{ cpu, gfx units.Watt }
	cells, err := sweep.Map(e.Workers, len(tdps), func(i int) (cell, error) {
		return cell{
			cpu: perf.Sensitivity(e.Platform, tdps[i], domain.Core0, 0.56),
			gfx: perf.Sensitivity(e.Platform, tdps[i], domain.GFX, 0.56),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	d := report.NewDataset("Fig 2(a): power-budget increase for 1% frequency increase").
		SetMeta("tdps", floatsMeta(tdps)).
		SetMeta("unit", "mW")
	t := d.Table("Fig 2(a): power-budget increase for 1% frequency increase (mW)",
		"TDP", "CPU", "GFX")
	for i, tdp := range tdps {
		t.AddRow(tdpCell(tdp),
			report.Num(cells[i].cpu/units.Milli, "%.4g"),
			report.Num(cells[i].gfx/units.Milli, "%.4g"))
	}
	return d, nil
}

// Fig2b regenerates Fig 2(b): the percentage of the TDP power budget going
// to SA+IO, CPU cores, LLC, and PDN loss for a CPU-intensive workload,
// using at each TDP the commonly-used PDN with the highest loss (IVR at low
// TDP, MBVR at high TDP), as the paper does.
//
// The TDP axis is a rectangular grid (same scenario evaluated under three
// PDNs), so the driver goes through the batch path: one EvalGrid per kind
// instead of 3×len(tdps) per-point Eval calls. A grid run is bitwise
// identical to Evaluate, so the rendered dataset — and the golden file —
// stay identical.
func Fig2b(e *Env) (*report.Dataset, error) {
	const ar = 0.56
	tdps := workload.StandardTDPs()
	g := pdn.NewGrid(len(tdps))
	for _, tdp := range tdps {
		s, err := workload.TDPScenario(e.Platform, tdp, workload.MultiThread, ar)
		if err != nil {
			return nil, err
		}
		g.Append(s)
	}
	kinds := []pdn.Kind{pdn.IVR, pdn.MBVR, pdn.LDO}
	perKind := make([][]pdn.Result, len(kinds))
	for ki, k := range kinds {
		perKind[ki] = make([]pdn.Result, g.Len())
		if err := e.EvalGrid(k, g, perKind[ki]); err != nil {
			return nil, err
		}
	}
	type cell struct {
		worstKind        pdn.Kind
		worst            pdn.Result
		cores, llc, saio units.Watt
	}
	cells := make([]cell, len(tdps))
	for i := range tdps {
		s := g.At(i)
		var c cell
		// Find the worst of the three commonly-used PDNs.
		for ki, k := range kinds {
			r := perKind[ki][i]
			if c.worst.PIn == 0 || r.PIn > c.worst.PIn {
				c.worst, c.worstKind = r, k
			}
		}
		c.cores = s.LoadFor(domain.Core0).PNom + s.LoadFor(domain.Core1).PNom
		c.llc = s.LoadFor(domain.LLC).PNom
		c.saio = s.LoadFor(domain.SA).PNom + s.LoadFor(domain.IO).PNom
		cells[i] = c
	}
	d := report.NewDataset("Fig 2(b): power-budget breakdown").
		SetMeta("tdps", floatsMeta(tdps)).
		SetMeta("ar", "0.56").
		SetMeta("pdns", kindsMeta(validatedPDNs))
	t := d.Table("Fig 2(b): power-budget breakdown, CPU-intensive workload, worst PDN per TDP",
		"TDP", "WorstPDN", "SA+IO", "CPU", "LLC", "PDNLoss")
	for i, tdp := range tdps {
		c := cells[i]
		loss := c.worst.PIn - c.worst.PNomTotal
		t.AddRow(tdpCell(tdp), report.Str(c.worstKind.String()),
			report.Pct(c.saio/c.worst.PIn), report.Pct(c.cores/c.worst.PIn),
			report.Pct(c.llc/c.worst.PIn), report.Pct(loss/c.worst.PIn))
	}
	return d, nil
}
