package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json a comparison needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bs benchSpec
	if err := json.Unmarshal(raw, &bs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bs, nil
}

// readRuns groups an -out file's end-to-end runs: workload -> metric -> one
// value per run.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if runs[rec.Workload] == nil {
			runs[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			runs[rec.Workload][name] = append(runs[rec.Workload][name], m.Value)
		}
	}
	return runs, sc.Err()
}

// spread is the distance between the first and third quartile as a share of
// the median, with quartiles as Python's statistics.quantiles(values, n=4)
// gives them: the measure the benchmark's acceptance uses. Fewer than two
// runs have no spread.
func spread(vs []float64) float64 {
	m := len(vs)
	if m < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (cut(3) - cut(1)) / median(s)
}

// compareFiles prints, per workload and end-to-end metric, both medians, the
// change, the bound and a verdict, and returns the process's exit code: 1 when
// any metric got worse by more than its bound.
func compareFiles(w io.Writer, specPath, basePath, newPath string) (code int, err error) {
	bs, err := readSpec(specPath)
	if err != nil {
		return 0, err
	}
	base, err := readRuns(basePath)
	if err != nil {
		return 0, err
	}
	cur, err := readRuns(newPath)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "%-17s %-19s %12s %12s %8s %7s %7s  %s\n",
		"workload", "metric", "base", "new", "change", "bound", "spread", "verdict")
	for _, wl := range bs.Workloads {
		for _, m := range bs.EndToEnd {
			a, b := base[wl.Name][m.Name], cur[wl.Name][m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma // share of the base median by which the metric got worse
			if m.Better == "higher" {
				worse = -worse
			}
			sp := max(spread(a), spread(b))
			verdict := "ok"
			switch {
			case sp > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
				code = 1
			}
			fmt.Fprintf(w, "%-17s %-19s %12.4f %12.4f %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				wl.Name, m.Name, ma, mb, 100*(mb-ma)/ma, 100*m.Bound, 100*sp, verdict)
		}
	}
	return code, nil
}
