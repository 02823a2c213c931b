package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the set-up probe process, as
// the benchmark binary does.
func TestMain(m *testing.M) {
	if runSetupProbe() {
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4},
	} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one = %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) || !math.IsNaN(mean(nil)) {
		t.Error("an empty sample must not yield a number")
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if !math.IsNaN(ratio(1, 0)) {
		t.Error("a ratio without a base must be NaN")
	}
}

func TestConserved(t *testing.T) {
	for _, c := range []struct {
		sent, needed, restored, retx int
		want                         bool
	}{
		{100, 100, 0, 0, true},
		{130, 100, 0, 30, true},
		{0, 100, 100, 0, true}, // dedup hit: nothing sent, everything restored
		{60, 100, 40, 0, true}, // resumed
		{101, 100, 0, 0, false},
		{100, 100, 0, 1, false},
	} {
		if got := conserved(c.sent, c.needed, c.restored, c.retx); got != c.want {
			t.Errorf("conserved(%d, %d, %d, %d) = %v, want %v", c.sent, c.needed, c.restored, c.retx, got, c.want)
		}
	}
}

func TestFillIsSeeded(t *testing.T) {
	a, b, c := make([]byte, 1003), make([]byte, 1003), make([]byte, 1003)
	fill(a, 42)
	fill(b, 42)
	fill(c, 43)
	if !bytes.Equal(a, b) || bytes.Equal(a, c) {
		t.Error("fill must depend on its key and only on it")
	}
}

// TestMetricListsMatchBenchmarkJSON holds the metrics the program prints
// to the ones BENCHMARK.json declares, in name and unit.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var doc struct {
		EndToEnd []m `json:"end_to_end"`
		PerLayer []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what  string
		json  []m
		specs []metricSpec
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.specs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.what, len(c.json), len(c.specs))
			continue
		}
		for i, s := range c.specs {
			if c.json[i].Name != s.name || c.json[i].Unit != s.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", c.what, i, c.json[i].Name, c.json[i].Unit, s.name, s.unit)
			}
		}
	}
}

// tiny shrinks a workload to smoke-test size.
func tiny(name string) params {
	p := workloads[name]
	p.seed, p.duration, p.setups = 7, time.Second, 2
	p.objectSize, p.warmSize = 256<<10, 64<<10
	p.rate = 200
	return p
}

// TestWorkloadsSmoke runs every workload at tiny size, untraced and
// traced: every op must succeed and every metric be measured.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets; seconds per workload")
	}
	for _, name := range []string{"bulk", "striped", "tasks"} {
		for _, traced := range []bool{false, true} {
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			rep := newReport()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			err := run(ctx, tiny(name), t.TempDir(), traced, rep)
			cancel()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if rep.attempted == 0 || rep.failed != 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed: %v", name, traced, rep.failed, rep.attempted, rep.errs)
			}
			if m := unmeasured(rep, specs); len(m) > 0 {
				t.Errorf("%s traced=%v: not measured: %v", name, traced, m)
			}
		}
	}
}
