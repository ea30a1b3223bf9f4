package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// verdicts of one (workload, metric) row.
const (
	verdictBetter     = "better"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
	verdictWorse      = "worse"
	verdictFailed     = "failed" // a run of either side failed its checks: its numbers are not judged
)

// side is what one result file has to show for one metric of one workload.
// The statistic compared is the median of values, the figures the runs
// reported. The spread is taken over points: the same values when there are
// several runs, else the single run's per-rep samples.
type side struct {
	values, points []float64
	failed         bool
}

func gather(runs []record, workload, name string) side {
	var s side
	var samples []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
			s.values = append(s.values, m.Value)
			samples = append(samples, m.Samples...)
			s.failed = s.failed || !r.Correct || r.Failed > 0
		}
	}
	s.points = s.values
	if len(s.values) == 1 && len(samples) > 1 {
		s.points = samples
	}
	return s
}

// judge compares side b against side a for one metric. A metric is
// unresolved when either side's spread exceeds the bound and the two sides'
// points overlap: the run-to-run noise then hides any change of that size.
func judge(def metricDef, a, b side) (ratio float64, verdict string) {
	ma, mb := median(a.values), median(b.values)
	if ma == 0 {
		return 0, verdictUnresolved
	}
	ratio = mb / ma
	if a.failed || b.failed {
		return ratio, verdictFailed
	}
	change := ratio - 1 // positive = b reads higher
	if def.better == "lower" {
		change = -change // positive = b is better
	}
	alo, ahi := minMax(a.points)
	blo, bhi := minMax(b.points)
	overlap := alo <= bhi && blo <= ahi
	noisy := relSpread(a.points) > def.bound || relSpread(b.points) > def.bound
	switch {
	case noisy && overlap:
		return ratio, verdictUnresolved
	case change < -def.bound:
		return ratio, verdictWorse
	case change > def.bound:
		return ratio, verdictBetter
	}
	return ratio, verdictUnchanged
}

// timedPhase returns the one length of the timed phase the untraced runs
// share, or an error: a longer phase is more reps and another op count.
func timedPhase(files ...resultFile) (float64, error) {
	var seconds float64
	seen := false
	for _, f := range files {
		for _, r := range f.Runs {
			switch {
			case r.Trace:
			case !seen:
				seconds, seen = r.Seconds, true
			case r.Seconds != seconds:
				return 0, fmt.Errorf("runs with timed phases of %g s and %g s do not compare", seconds, r.Seconds)
			}
		}
	}
	return seconds, nil
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files and reports whether any row reads worse or failed.
func compareFiles(w io.Writer, pathA, pathB string) (bad bool, err error) {
	var a, b resultFile
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	seconds, err := timedPhase(a, b)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a = %s (%s, GOMAXPROCS %d)\nb = %s (%s, GOMAXPROCS %d)\ntimed phase %g s\n", pathA, a.Env.CPUModel, a.Env.GOMAXPROCS, pathB, b.Env.CPUModel, b.Env.GOMAXPROCS, seconds)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta (median)\tb (median)\tb/a\tbound\tverdict")
	counts := map[string]int{}
	for _, def := range workloadDefs {
		for _, m := range endToEnd {
			sa, sb := gather(a.Runs, def.name, m.name), gather(b.Runs, def.name, m.name)
			if len(sa.values) == 0 || len(sb.values) == 0 {
				continue
			}
			ratio, verdict := judge(m, sa, sb)
			counts[verdict]++
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.4f of a's %.6g\t%s %.0f%%\t%s\n",
				def.name, m.name, m.unit, median(sa.values), median(sb.values), ratio, median(sa.values), m.better, m.bound*100, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%d better, %d unchanged, %d unresolved, %d worse, %d failed\n",
		counts[verdictBetter], counts[verdictUnchanged], counts[verdictUnresolved], counts[verdictWorse], counts[verdictFailed])
	return counts[verdictWorse]+counts[verdictFailed] > 0, nil
}
