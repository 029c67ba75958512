package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The repository root, as seen from this package's directory.
const repoRoot = ".."

// daemonBin is a non-race flexwattsd built once for the package's tests.
var daemonBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "flexbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	daemonBin = filepath.Join(dir, "flexwattsd")
	cmd := exec.Command("go", "build", "-o", daemonBin, "./cmd/flexwattsd")
	cmd.Dir = repoRoot
	out, err := cmd.CombinedOutput()
	code := 1
	if err != nil {
		fmt.Fprintf(os.Stderr, "build flexwattsd: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkFile is BENCHMARK.json, reduced to what the tests compare.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []namedUnit `json:"end_to_end"`
	PerLayer []namedUnit `json:"per_layer"`
}

type namedUnit struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func tinyConfig(t *testing.T, workload string, trace bool) *config {
	return &config{workload: workload, seed: 3, seconds: 0.2, trace: trace, root: repoRoot,
		daemon: daemonBin, out: t.TempDir(), tiny: true}
}

var nameGrammar = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames fails unless got names exactly the want metrics, with the
// same units, every name in the benchmark's grammar.
func checkNames(t *testing.T, got map[string]metric, want []namedUnit) {
	t.Helper()
	units := map[string]string{}
	for _, m := range want {
		units[m.Name] = m.Unit
	}
	for n, m := range got {
		if !nameGrammar.MatchString(n) {
			t.Errorf("metric name %q outside the grammar", n)
		}
		u, ok := units[n]
		if !ok {
			t.Errorf("printed metric %q is not in BENCHMARK.json", n)
		} else if u != m.Unit {
			t.Errorf("metric %q printed in %q, BENCHMARK.json says %q", n, m.Unit, u)
		}
	}
	for n := range units {
		if _, ok := got[n]; !ok {
			t.Errorf("BENCHMARK.json metric %q not printed", n)
		}
	}
}

// TestWorkloadsEndToEnd runs every workload at a tiny size, untraced and
// traced, and checks the printed metrics against BENCHMARK.json.
func TestWorkloadsEndToEnd(t *testing.T) {
	bf := readBenchmark(t)
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			res, summary, err := runConfig(tinyConfig(t, wl.name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					wl.name, trace, res.Correct, res.Attempted, res.Failed, summary)
			}
			if trace {
				checkNames(t, res.Metrics, bf.PerLayer)
			} else {
				checkNames(t, res.Metrics, bf.EndToEnd)
			}
			var out, errOut bytes.Buffer
			if code := emit(res, summary, nil, &out, &errOut); code != 0 {
				t.Errorf("%s: exit code %d: %s", wl.name, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", wl.name, err)
			}
			keys := make([]string, 0, len(last))
			for k := range last {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
				t.Errorf("%s: result keys %v", wl.name, keys)
			}
		}
	}
}

// wantFailure runs cfg and checks the wrong outputs were counted and make
// the command exit non-zero.
func wantFailure(t *testing.T, cfg *config) {
	t.Helper()
	res, summary, err := runConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("%s: a corrupted output was not counted: %+v", cfg.workload, res)
	}
	if !strings.Contains(summary, "failed_frac") {
		t.Errorf("summary does not report failed_frac:\n%s", summary)
	}
	var out, errOut bytes.Buffer
	if code := emit(res, summary, nil, &out, &errOut); code == 0 {
		t.Errorf("%s: exit code 0 with %d failed operations", cfg.workload, res.Failed)
	}
}

func TestCorruptedGoldenFails(t *testing.T) {
	root := t.TempDir()
	dst := filepath.Join(root, goldenDir)
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(repoRoot, goldenDir)
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == "tab1.golden" {
			b = bytes.Replace(b, []byte("1"), []byte("2"), 1)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg := tinyConfig(t, "reproduce", false)
	cfg.root = root
	wantFailure(t, cfg)
}

// corruptETEE changes the first served ETEE's leading digit after "0.".
func corruptETEE(resp []byte) []byte {
	out := append([]byte(nil), resp...)
	i := bytes.Index(out, []byte(`"etee": 0.`))
	if i < 0 {
		return []byte("not json")
	}
	j := i + len(`"etee": 0.`)
	if out[j] == '5' {
		out[j] = '4'
	} else {
		out[j] = '5'
	}
	return out
}

func TestCorruptedResponseFails(t *testing.T) {
	for _, wl := range []string{"serve-bulk", "serve-hot"} {
		cfg := tinyConfig(t, wl, false)
		cfg.corrupt = corruptETEE
		wantFailure(t, cfg)
	}
}

// TestSpecMatchesCode keeps spec.json's recorded input properties and
// layer map in step with the code and BENCHMARK.json.
func TestSpecMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("spec.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name   string         `json:"name"`
			Inputs map[string]any `json:"inputs"`
			TailQ  float64        `json:"tail_quantile"`
			Setups int            `json:"setups"`
		} `json:"workloads"`
		Layers struct {
			Map []struct {
				Metrics []string    `json:"metrics"`
				Moves   [][2]string `json:"moves"`
			} `json:"map"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	bf := readBenchmark(t)
	if len(spec.Workloads) != len(workloads) || len(bf.Workloads) != len(workloads) {
		t.Fatalf("workload counts: spec %d, BENCHMARK.json %d, code %d", len(spec.Workloads), len(bf.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || bf.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: spec %q, BENCHMARK.json %q, code %q", i, w.Name, bf.Workloads[i].Name, workloads[i].name)
		}
		if w.TailQ != workloads[i].tailQ {
			t.Errorf("%s: tail quantile %v in spec, %v in the code", w.Name, w.TailQ, workloads[i].tailQ)
		}
		setups := daemonSetups
		if w.Name == "reproduce" || w.Name == "design" {
			setups = inProcSetups
		}
		if w.Setups != setups {
			t.Errorf("%s: %d set-ups in spec, %d in the code", w.Name, w.Setups, setups)
		}
	}
	num := func(w int, key string) float64 {
		v, _ := spec.Workloads[w].Inputs[key].(float64)
		return v
	}
	for _, c := range []struct {
		w    int
		key  string
		want float64
	}{
		{1, "batch", bulkBatch}, {1, "session_bodies", bulkSession},
		{2, "batch", hotBatch}, {2, "hot_set", hotSetSize}, {2, "hot_idle", hotIdle}, {2, "bodies", hotBodies},
		{3, "tdp", designTDP}, {3, "spaces", designSpaces}, {3, "anneal_budget", annealBudget}, {3, "anneal_chains", annealChains},
	} {
		if got := num(c.w, c.key); got != c.want {
			t.Errorf("%s.%s: spec %v, code %v", spec.Workloads[c.w].Name, c.key, got, c.want)
		}
	}
	layers := map[string]bool{}
	for _, e := range spec.Layers.Map {
		for _, m := range e.Metrics {
			layers[m] = true
		}
		for _, mv := range e.Moves {
			if !hasName(bf.EndToEnd, mv[0]) {
				t.Errorf("layer map predicts unknown end-to-end metric %q", mv[0])
			}
			if _, ok := findWorkload(mv[1]); !ok {
				t.Errorf("layer map names unknown workload %q", mv[1])
			}
		}
	}
	for _, m := range bf.PerLayer {
		if !layers[m.Name] {
			t.Errorf("per-layer metric %q missing from spec.json's layer map", m.Name)
		}
		delete(layers, m.Name)
	}
	for m := range layers {
		t.Errorf("spec.json maps %q, which BENCHMARK.json does not list", m)
	}
}

func hasName(ms []namedUnit, n string) bool {
	for _, m := range ms {
		if m.Name == n {
			return true
		}
	}
	return false
}
