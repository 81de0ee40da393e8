package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsTiny runs every workload at test size, untraced and
// traced, and checks that no operation failed and that every named
// metric is present and finite (run reports a missing or non-finite
// metric as an error).
func TestWorkloadsTiny(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, _, err := run(w, runCfg{seed: 7, budget: 100 * time.Millisecond, tiny: true}, traced)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range res.Checks {
					if !c.OK {
						t.Errorf("check %s failed: %s", c.Name, c.Detail)
					}
				}
				if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
					t.Errorf("attempted %d, failed %d, correct %v", res.Attempted, res.Failed, res.Correct)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}

// TestBenchmarkDefinition checks that BENCHMARK.json names exactly the
// workloads and metrics this program reports, with the same units and
// directions.
func TestBenchmarkDefinition(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	for _, w := range def.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("workload %s not in the program", w.Name)
		}
	}
	check := func(kind string, got, want []metricSpec) {
		if len(want) != len(got) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(want), len(got))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %v, program %v", kind, i, want[i], got[i])
			}
		}
	}
	var want []metricSpec
	for _, m := range def.EndToEnd {
		want = append(want, metricSpec{m.Name, m.Unit, m.Better == "higher"})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEnd, want)
	want = nil
	for _, m := range def.PerLayer {
		want = append(want, metricSpec{m.Name, m.Unit, m.Better == "higher"})
	}
	check("per_layer", perLayer, want)
}

// TestCompare checks that a change beyond a metric's bound, in the
// metric's worse direction, is reported as a regression.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, pps, lat float64) string {
		res := Result{Workload: "udp-calc", Metrics: map[string]*Metric{
			"calls_per_s": {Unit: "1/s", Value: pps},
			"call_p50_us": {Unit: "us", Value: lat},
		}}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	old := write("old.json", 1000, 100)
	var out bytes.Buffer
	if err := runCompare(&out, "../BENCHMARK.json", old, write("same.json", 990, 101)); err != nil {
		t.Fatalf("small change reported as %v:\n%s", err, out.String())
	}
	out.Reset()
	err := runCompare(&out, "../BENCHMARK.json", old, write("slow.json", 500, 100))
	if !errors.Is(err, errRegression) || !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("halved throughput not reported (err %v):\n%s", err, out.String())
	}
}
