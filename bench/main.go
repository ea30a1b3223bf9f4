// Command bench is the repository's one benchmark: five workloads that drive
// the system only through the public functions of internal/*, the way
// cmd/spinscan and cmd/spinwatch do, with end-to-end metrics from untraced
// runs and per-layer metrics from a separate traced run. See README.md in
// this directory and BENCHMARK.json at the repository root.
//
//	go run ./bench                          every workload, seed 1
//	go run ./bench -workload week_emulated  one workload, in this process
//	go run ./bench -trace 1                 the traced run: per-layer metrics
//	go run ./bench -compare a.json b.json   two result files, metric by metric
//	go run ./bench -report                  regenerate bench/BASELINE.md
//
// BENCHMARK.json's command is run.sh beside this file: the same program,
// built with the go tool's cache and temporary files inside the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// benchDir is where the benchmark's own files live, relative to the
// repository root it must be run from; outDir is its scratch, which git
// ignores: result records, traces, journals, CPU profiles.
const (
	benchDir = "bench"
	outDir   = benchDir + "/out"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
		seed     = new(int64)
		seconds  = flag.Float64("seconds", fullSizes.seconds, "with -workload: length of the timed phase. The build driver passes BENCHMARK.json's run_seconds, which is this default; runs of another length do not compare")
		trace    = flag.Int("trace", 0, "1 = traced run: spans kept in memory, per-layer metrics reported instead of end-to-end ones")
		layers   = flag.Bool("layers", true, "traced run: also run the layer drives and the composed connection, which do not depend on the workload (a suite runs them once)")
		smoke    = flag.Bool("smoke", false, "toy sizes: a functional pass, not a measurement")
		out      = flag.String("out", filepath.Join(outDir, "result.json"), "write the records of the run or suite here, for -compare")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		report   = flag.Bool("report", false, "measure seeds 1 and 2 plus a traced run and rewrite "+benchDir+"/BASELINE.md")
	)
	*seed = 1
	flag.Func("seed", "seed of the generated world, every scan and the packet traces (default 1)", func(s string) error {
		*seed = parseSeed(s)
		return nil
	})
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: go run ./bench -compare a.json b.json")
		}
		bad, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if bad {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal("unexpected argument %q", flag.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		fatal("-trace takes 0 or 1")
	}
	if _, err := os.Stat(filepath.Join(benchDir, "main.go")); err != nil {
		fatal("run from the repository root (go run ./%s): %v", benchDir, err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal("%v", err)
	}
	sz := fullSizes
	if *smoke {
		sz = smokeSizes
	}
	// The run length belongs to the benchmark (sizes.seconds). Only the run
	// the driver starts takes it from the command line.
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "seconds" {
			return
		}
		if *workload == "" {
			fatal("-seconds goes with -workload; suites and reports run the benchmark's own %g s", sz.seconds)
		}
		sz.seconds = *seconds
	})

	switch {
	case *report:
		if err := writeReport(filepath.Join(benchDir, "BASELINE.md"), *smoke); err != nil {
			fatal("%v", err)
		}
	case *workload != "":
		def, ok := findWorkload(*workload)
		if !ok {
			fatal("unknown workload %q", *workload)
		}
		rec := runWorkload(def, options{seed: *seed, trace: *trace == 1, layers: *layers, sz: sz, tmpRoot: outDir, out: os.Stdout})
		printRecord(os.Stdout, rec)
		// The host is described after the run, which set GOMAXPROCS.
		if err := writeJSON(*out, resultFile{Env: describeEnvironment(outDir), Runs: []record{rec}}); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("%s\n", resultLine(rec)) // last, as the driver expects
		if !rec.Correct {
			os.Exit(1)
		}
	default:
		file, ok := runSuite(os.Stdout, []int64{*seed}, *trace == 1, *smoke)
		if err := writeJSON(*out, file); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("# %d runs written to %s\n", len(file.Runs), *out)
		if !ok {
			os.Exit(1)
		}
	}
}

// parseSeed takes whatever the driver calls a seed. A 64-bit integer, signed
// or unsigned, is itself; any other text stands for its FNV-1a hash, so that
// no seed fails a run.
func parseSeed(s string) int64 {
	if n, err := strconv.ParseInt(s, 0, 64); err == nil {
		return n
	}
	if n, err := strconv.ParseUint(s, 0, 64); err == nil {
		return int64(n)
	}
	h := fnv.New64a()
	h.Write([]byte(s))
	return int64(h.Sum64())
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// layersWith is the workload whose traced run a suite gives the layer drives
// and the composed connection to: the one the packet layers carry.
const layersWith = "week_emulated"

// runSuite runs every workload once per seed, each in its own child process
// of this binary so that peak RSS and GC state are the workload's alone. The
// host description is the first child's, which ran with GOMAXPROCS = W.
func runSuite(w io.Writer, seeds []int64, trace, smoke bool) (resultFile, bool) {
	var file resultFile
	self, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	ok := true
	recPath := filepath.Join(outDir, "record.json")
	defer os.Remove(recPath)
	for _, seed := range seeds {
		for _, def := range workloadDefs {
			args := []string{"-workload", def.name, "-seed", fmt.Sprint(seed), "-out", recPath}
			if trace {
				args = append(args, "-trace", "1", fmt.Sprintf("-layers=%v", def.name == layersWith))
			}
			if smoke {
				args = append(args, "-smoke")
			}
			os.Remove(recPath) // never read an earlier run's
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = w, os.Stderr
			runErr := cmd.Run()
			var child resultFile
			if err := readJSON(recPath, &child); err != nil || len(child.Runs) != 1 {
				fatal("workload %s left no record (%v): %v", def.name, runErr, err)
			}
			if len(file.Runs) == 0 {
				file.Env = child.Env
			}
			file.Runs = append(file.Runs, child.Runs[0])
			if runErr != nil || !child.Runs[0].Correct {
				ok = false
			}
		}
	}
	return file, ok
}

// printRecord prints every metric by name with its unit, then the op counts.
func printRecord(w io.Writer, rec record) {
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Fprintf(w, "%s %s %.6g %s", rec.Workload, n, m.Value, m.Unit)
		if len(m.Samples) > 1 {
			fmt.Fprintf(w, " (over %d samples)", len(m.Samples))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%s ops_attempted %d count\n%s ops_failed %d count\n", rec.Workload, rec.Attempted, rec.Workload, rec.Failed)
}

// resultLine is the one JSON object the driver reads. The driver wants every
// per-layer name from every traced run, so the ones the record lacks — they
// do not apply to its workload — read 0 here.
func resultLine(rec record) []byte {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]value{}}
	if rec.Trace {
		for _, d := range perLayer {
			line.Metrics[d.name] = value{0, d.unit}
		}
	}
	for n, m := range rec.Metrics {
		line.Metrics[n] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal("%v", err)
	}
	return b
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
