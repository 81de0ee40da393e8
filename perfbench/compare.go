package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchDef is the part of BENCHMARK.json the comparison needs.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// errRegression reports that at least one metric got worse than its
// bound allows.
var errRegression = errors.New("regression beyond bound")

// loadResults reads result files (a file, or every *.json in a
// directory) into workload -> metric -> one value per result file.
func loadResults(path string) (map[string]map[string][]float64, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	out := map[string]map[string][]float64{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r Result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Workload == "" {
			continue
		}
		m := out[r.Workload]
		if m == nil {
			m = map[string][]float64{}
			out[r.Workload] = m
		}
		for name, v := range r.Metrics {
			m[name] = append(m[name], v.Value)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	return out, nil
}

// runCompare prints, per workload and metric, the median of each side,
// the change, and for end-to-end metrics whether it stays within the
// bound BENCHMARK.json fixes. It returns errRegression when any metric
// got worse by more than its bound.
func runCompare(w io.Writer, benchPath, oldPath, newPath string) error {
	b, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var def benchDef
	if err := json.Unmarshal(b, &def); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	type rule struct {
		better string
		bound  float64 // 0: no bound (per-layer)
	}
	rules := map[string]rule{}
	var order []string
	for _, m := range def.EndToEnd {
		rules[m.Name] = rule{m.Better, m.Bound}
		order = append(order, m.Name)
	}
	for _, m := range def.PerLayer {
		rules[m.Name] = rule{m.Better, 0}
		order = append(order, m.Name)
	}
	olds, err := loadResults(oldPath)
	if err != nil {
		return err
	}
	news, err := loadResults(newPath)
	if err != nil {
		return err
	}
	var wls []string
	for wl := range olds {
		if news[wl] != nil {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	regressed := false
	for _, wl := range wls {
		fmt.Fprintf(w, "%s\n  %-34s %14s %14s %9s %7s  %s\n", wl, "metric", "old", "new", "change", "bound", "verdict")
		for _, name := range order {
			ov, nv := olds[wl][name], news[wl][name]
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			r := rules[name]
			mo, mn := median(ov), median(nv)
			change := (mn - mo) / mo
			worse := change
			if r.better == "higher" {
				worse = -change
			}
			verdict, bound := "", "-"
			if r.bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*r.bound)
				switch {
				case worse > r.bound:
					verdict = "REGRESSION"
					regressed = true
				case worse < -r.bound:
					verdict = "better"
				default:
					verdict = "within bound"
				}
			}
			fmt.Fprintf(w, "  %-34s %14.4g %14.4g %+8.1f%% %7s  %s %s\n", name, mo, mn, 100*change, bound, verdict, spread(ov, nv))
		}
	}
	if regressed {
		return errRegression
	}
	return nil
}

// spread notes each side's quartile spread as a share of its median
// when a side has enough values for quartiles.
func spread(sides ...[]float64) string {
	var parts []string
	for _, v := range sides {
		if len(v) < 4 {
			return ""
		}
		parts = append(parts, fmt.Sprintf("%.1f%%", 100*(quantile(v, 0.75)-quantile(v, 0.25))/median(v)))
	}
	return "(spread " + strings.Join(parts, " / ") + ")"
}
