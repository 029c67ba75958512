package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/flexwatts"
)

// Set-ups per run; setup_s is their median. A daemon start-up takes
// milliseconds, so a few suffice. A Suite or a Client builds in well under a
// millisecond, at two speeds about 1.4x apart from call to call, so an
// in-process run builds many and collects garbage before each build: every
// build starts from a collected heap, as in a fresh process, and no
// collection that earlier builds triggered lands inside its timing.
const (
	daemonSetups = 9
	inProcSetups = 201
)

// timeInProcSetups times inProcSetups calls of build into w.setup.
func timeInProcSetups(w *window, build func() error) error {
	for i := 0; i < inProcSetups; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := build(); err != nil {
			return err
		}
		w.setup = append(w.setup, time.Since(t0).Seconds())
	}
	return nil
}

// goldenDir holds the byte-exact expected rendering of every experiment.
const goldenDir = "internal/experiments/testdata"

// loadGoldens reads every experiment's golden rendering from the checkout.
func loadGoldens(root string) (map[string][]byte, error) {
	g := map[string][]byte{}
	for _, id := range flexwatts.ExperimentIDs() {
		b, err := os.ReadFile(filepath.Join(root, goldenDir, id+".golden"))
		if err != nil {
			return nil, fmt.Errorf("golden for %s: %w", id, err)
		}
		g[id] = b
	}
	return g, nil
}

// runReproduce is the researcher's path: regenerate all 16 experiments in
// process, each regeneration on a fresh Suite so its evaluation cache
// starts cold, as it does for a CLI user. One operation is one
// regeneration; every rendered dataset must equal its golden byte for byte.
func runReproduce(cfg *config, tr *tracer) (*window, error) {
	goldens, err := loadGoldens(cfg.root)
	if err != nil {
		return nil, err
	}
	ids := flexwatts.ExperimentIDs()
	if cfg.tiny {
		ids = []string{"tab1", "fig2a"}
	}
	w := &window{}
	if err := timeInProcSetups(w, func() error {
		_, err := flexwatts.NewSuite()
		return err
	}); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	before := readRuntime()
	err = timeWindow(cfg.seconds, cfg.minOps, w, func(int) (float64, error) {
		root := tr.start("reproduce.suite", tr.op())
		suite, err := flexwatts.NewSuite()
		if err != nil {
			return 0, err
		}
		for _, id := range ids {
			sp := root.child("experiments." + id)
			buf.Reset()
			err := suite.Render(id, &buf, flexwatts.FormatASCII)
			sp.end()
			w.attempted++
			// The CLI ends each experiment with one newline; the goldens
			// were captured through it.
			buf.WriteByte('\n')
			if err != nil || !bytes.Equal(buf.Bytes(), goldens[id]) {
				w.failed++
			}
		}
		root.end()
		return 1, nil
	})
	if err != nil {
		return nil, err
	}
	w.addRuntimeSince(before, len(w.lat))
	if w.rssMB, err = peakRSSMB(0); err != nil {
		return nil, err
	}
	return w, nil
}
