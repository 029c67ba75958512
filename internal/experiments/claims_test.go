package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/flexwatts/report"
)

// The paper's headline claims as named tests over the typed datasets, so a
// change that keeps the tables plausible but breaks the science fails by
// name. fig4's ≥ 97 % validation accuracy is TestFig4AccuracySummary.

// claimEpsilonPP is the tolerance, in percentage points, of the "FlexWatts
// matches the best PDN" claims (§7.1: less than 1 % degradation from the
// shared load-line; this reproduction stays within 0.1 pp).
const claimEpsilonPP = 0.2

// claimTable returns the only table of experiment id with its column
// index.
func claimTable(t *testing.T, id string) (*report.Table, map[string]int) {
	t.Helper()
	d, err := Dataset(id, env(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Tables) != 1 {
		t.Fatalf("%s: %d tables, want 1", id, len(d.Tables))
	}
	tab := d.Tables[0]
	col := map[string]int{}
	for i, c := range tab.Columns {
		col[c.Name] = i
	}
	return tab, col
}

// checkFlexTracksBest pins fig8a/fig8b: at every TDP FlexWatts'
// normalized performance is at least the best static PDN's minus the
// tolerance.
func checkFlexTracksBest(t *testing.T, id string) {
	tab, col := claimTable(t, id)
	if len(tab.Rows) == 0 {
		t.Fatalf("%s: no rows", id)
	}
	for _, row := range tab.Rows {
		best, bestName := 0.0, ""
		for _, name := range []string{"IVR", "MBVR", "LDO", "I+MBVR"} {
			if v := row[col[name]].Value; v > best {
				best, bestName = v, name
			}
		}
		flex := row[col["FlexWatts"]].Value
		if gap := (flex - best) * 100; gap < -claimEpsilonPP {
			t.Errorf("%s at %s W: FlexWatts %.3f%% trails %s %.3f%% by %.3f pp", id,
				row[col["TDP"]].Text, flex*100, bestName, best*100, -gap)
		}
	}
}

func TestClaimFig8aFlexTracksBestPDN(t *testing.T) { checkFlexTracksBest(t, "fig8a") }

func TestClaimFig8bFlexTracksBestPDN(t *testing.T) { checkFlexTracksBest(t, "fig8b") }

// TestClaimFig8cFlexMatchesLDO pins fig8c: in every battery-life workload
// FlexWatts' average power is within the tolerance of the LDO PDN's.
func TestClaimFig8cFlexMatchesLDO(t *testing.T) {
	tab, col := claimTable(t, "fig8c")
	if len(tab.Rows) != 4 {
		t.Fatalf("fig8c: %d workloads, want 4", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		flex, ldo := row[col["FlexWatts"]].Value, row[col["LDO"]].Value
		if gap := (flex - ldo) * 100; gap > claimEpsilonPP || gap < -claimEpsilonPP {
			t.Errorf("fig8c %s: FlexWatts %.3f%% vs LDO %.3f%% (%+.3f pp)",
				row[0].Text, flex*100, ldo*100, gap)
		}
	}
}

// crossoverRank orders an obs crossover cell: a TDP in watts, with ">50"
// (no crossover on the modeled axis) ranking above 50.
func crossoverRank(t *testing.T, c report.Cell) float64 {
	t.Helper()
	if strings.HasPrefix(c.Text, ">") {
		v, err := strconv.ParseFloat(strings.TrimPrefix(c.Text, ">"), 64)
		if err != nil {
			t.Fatalf("bad crossover cell %q", c.Text)
		}
		return v + 1
	}
	v, err := strconv.ParseFloat(c.Text, 64)
	if err != nil {
		t.Fatalf("bad crossover cell %q", c.Text)
	}
	return v
}

// TestClaimObsCrossoverOrdering pins Observations 1/2: the TDP where IVR
// overtakes MBVR and LDO rises from Graphics to Multi-Thread to
// Single-Thread at every AR.
func TestClaimObsCrossoverOrdering(t *testing.T) {
	tab, _ := claimTable(t, "obs")
	order := []string{"Graphics", "Multi-Thread", "Single-Thread"}
	// rows[ar][workload] is the row of each (AR, workload) pair.
	rows := map[string]map[string][]report.Cell{}
	for _, row := range tab.Rows {
		ar := row[1].Text
		if rows[ar] == nil {
			rows[ar] = map[string][]report.Cell{}
		}
		rows[ar][row[0].Text] = row
	}
	if len(rows) == 0 {
		t.Fatal("obs: no rows")
	}
	for ar, byWL := range rows {
		for c := 2; c < len(tab.Columns); c++ {
			prev, prevWL := -1.0, ""
			for _, wl := range order {
				row, ok := byWL[wl]
				if !ok {
					t.Fatalf("obs: no %s row at AR %s", wl, ar)
				}
				r := crossoverRank(t, row[c])
				if r <= prev {
					t.Errorf("obs %s at AR %s: %s crossover %s not above %s's", tab.Columns[c].Name, ar, wl, row[c].Text, prevWL)
				}
				prev, prevWL = r, wl
			}
		}
	}
}
