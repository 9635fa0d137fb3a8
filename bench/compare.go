package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// -compare: the rule later performance changes are judged by. For every
// workload and end-to-end metric it prints both sides' medians and
// quartiles, the ratio with its base, the metric's bound and a verdict:
// regressed when the new median is worse than the old by more than the
// bound, unresolved when either side's own spread is wider than the bound
// (unless every new run beats every old run), ok otherwise.

func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
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
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Result.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
		failed := 0.0
		if rec.Result.Attempted > 0 {
			failed = float64(rec.Result.Failed) / float64(rec.Result.Attempted)
		}
		out[rec.Workload]["failed_share"] = append(out[rec.Workload]["failed_share"], failed)
	}
	return out, sc.Err()
}

// quartiles are the cut points Python's statistics.quantiles(xs, n=4)
// gives (its default, exclusive method), which is what the driver uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func compareFiles(w io.Writer, oldPath, newPath string) error {
	olds, err := readRecords(oldPath)
	if err != nil {
		return err
	}
	news, err := readRecords(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-18s %-22s %4s %12s %12s %12s | %4s %12s %12s %12s | %8s %6s  %s\n",
		"workload", "metric", "n", "old q1", "old median", "old q3", "n", "new q1", "new median", "new q3", "new/old", "bound", "verdict")
	bad := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			o, n := olds[wl.Name][d.Name], news[wl.Name][d.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			o1, o2, o3 := quartiles(o)
			n1, n2, n3 := quartiles(n)
			worse := (n2 - o2) / o2
			if d.Better == "higher" {
				worse = -worse
			}
			spread := max((o3-o1)/o2, (n3-n1)/n2)
			verdict := "ok"
			switch {
			case spread > d.Bound && !allBetter(o, n, d.Better):
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Fprintf(w, "%-18s %-22s %4d %12.6g %12.6g %12.6g | %4d %12.6g %12.6g %12.6g | %8.4f %6.2f  %s\n",
				wl.Name, d.Name, len(o), o1, o2, o3, len(n), n1, n2, n3, n2/o2, d.Bound, verdict)
		}
		// Failures have no bound: any is a regression.
		if o, n := olds[wl.Name]["failed_share"], news[wl.Name]["failed_share"]; len(o) > 0 && len(n) > 0 {
			verdict := "ok"
			if quantile(n, 1) > 0 {
				verdict = "regressed"
				bad++
			}
			fmt.Fprintf(w, "%-18s %-22s %4d %12s %12.6g %12s | %4d %12s %12.6g %12s | %8s %6.2f  %s\n",
				wl.Name, "failed_share", len(o), "", quantile(o, 1), "", len(n), "", quantile(n, 1), "", "", 0.0, verdict)
		}
	}
	fmt.Fprintf(w, "%d row(s) not ok; base of every ratio is the old median\n", bad)
	return nil
}

// allBetter reports whether every new run reads better than every old one.
func allBetter(old, new []float64, better string) bool {
	if better == "higher" {
		return quantile(new, 0) > quantile(old, 1)
	}
	return quantile(new, 1) < quantile(old, 0)
}
