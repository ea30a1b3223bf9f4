package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

// cpuProfile wraps a stretch of the benchmark in a runtime/pprof CPU
// profile and afterwards folds the samples by the Go package of their leaf
// frame. The repository is stdlib-only and the standard library has no
// profile reader, so the fold shells out to `go tool pprof -raw`; without
// the tool every cpu_share.* metric reads 0 and a note says why.
type cpuProfile struct {
	dir, path string
	file      *os.File
}

func startCPUProfile(dir string) (*cpuProfile, string) {
	f, err := os.CreateTemp(dir, "cpu-*.pprof")
	if err != nil {
		return nil, "cpu_share.*: no profile file: " + err.Error()
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, "cpu_share.*: " + err.Error()
	}
	return &cpuProfile{dir: dir, path: f.Name(), file: f}, ""
}

func (p *cpuProfile) stopAndFold() (map[string]float64, string) {
	if p == nil {
		return nil, ""
	}
	pprof.StopCPUProfile()
	p.file.Close()
	defer os.Remove(p.path)
	goTool, err := exec.LookPath("go")
	if err != nil {
		return nil, "cpu_share.*: absent, no go tool on PATH to read the profile"
	}
	cmd := exec.Command(goTool, "tool", "pprof", "-raw", p.path)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+p.dir) // pprof writes nothing outside the checkout
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Sprintf("cpu_share.*: absent, go tool pprof -raw failed: %v %s", err, firstLine(stderr.String()))
	}
	shares, err := foldRawProfile(raw)
	if err != nil {
		return nil, "cpu_share.*: absent, " + err.Error()
	}
	return shares, ""
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(strings.TrimSpace(s), "\n")
	return line
}

// foldRawProfile reads `pprof -raw` text: a Samples section of
// "count value: loc loc …" rows, leaf location first, then a Locations
// section of "id: addr M=n function file:line …" rows, each followed by one
// "function file:line …" row per frame the first was inlined into.
func foldRawProfile(raw []byte) (map[string]float64, error) {
	type sample struct {
		value int64
		locs  []int
	}
	var samples []sample
	funcs := map[int][]string{} // location → its frames, innermost first
	section, last := "", 0
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch strings.TrimSpace(line) {
		case "Samples:":
			section = "samples"
			sc.Scan() // the "samples/count cpu/nanoseconds" header
			continue
		case "Locations":
			section = "locations"
			continue
		case "Mappings":
			section = ""
			continue
		}
		switch section {
		case "samples":
			head, rest, _ := strings.Cut(line, ":")
			counts, locs := strings.Fields(head), strings.Fields(rest)
			if len(counts) != 2 || len(locs) == 0 {
				continue
			}
			v, err := strconv.ParseInt(counts[1], 10, 64)
			if err != nil {
				continue
			}
			s := sample{value: v}
			for _, l := range locs {
				if id, err := strconv.Atoi(l); err == nil {
					s.locs = append(s.locs, id)
				}
			}
			samples = append(samples, s)
		case "locations":
			fields := strings.Fields(line)
			if len(fields) >= 4 && strings.HasSuffix(fields[0], ":") && strings.HasPrefix(fields[2], "M=") {
				if id, err := strconv.Atoi(strings.TrimSuffix(fields[0], ":")); err == nil {
					last = id
					funcs[id] = append(funcs[id], fields[3])
				}
			} else if len(fields) >= 2 && last != 0 {
				funcs[last] = append(funcs[last], fields[0])
			}
		}
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("the profile holds no samples")
	}
	var total float64
	shares := map[string]float64{}
	var stack []string
	for _, s := range samples {
		stack = stack[:0]
		for _, l := range s.locs {
			stack = append(stack, funcs[l]...)
		}
		shares["cpu_share."+cpuBucket(stack)] += float64(s.value)
		total += float64(s.value)
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// gcFrames and allocFrames are prefixes of runtime function names (after
// "runtime.") that mark a stack as the collector's work or the allocator's.
var (
	gcFrames    = []string{"gcBgMarkWorker", "gcAssistAlloc", "gcDrain", "gcMark", "gcStart", "gcSweep", "bgsweep", "bgscavenge", "sweepone", "(*sweepLocked)", "wbBufFlush", "gcWriteBarrier"}
	allocFrames = []string{"mallocgc", "newobject", "newarray", "makeslice", "growslice", "makemap", "memclr", "memmove", "duffcopy", "duffzero"}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// cpuBucket maps one sample's stack, leaf first, to its cpu_share.* bucket.
// A stack that passes through the garbage collector anywhere — background
// workers, assists inside an allocation, write-barrier flushes — is the
// collector's. Otherwise the walk from the leaf stops at the first frame
// that is an allocation, a copy or a clear (runtime_alloc) or a function of
// internal/* package that has a bucket: time in the standard library, and in
// the small internal packages without one (telemetry, hostile, rtt, …), is
// billed to the layer that called it, so math/rand reseeding shows up under
// the package that reseeds. What is left — the scheduler, the harness — is
// other.
func cpuBucket(stack []string) string {
	for _, fn := range stack {
		if name, ok := strings.CutPrefix(fn, "runtime."); ok && hasAnyPrefix(name, gcFrames) {
			return "runtime_gc"
		}
	}
	for _, fn := range stack {
		if name, ok := strings.CutPrefix(fn, "runtime."); ok && hasAnyPrefix(name, allocFrames) {
			return "runtime_alloc"
		}
		pkg, ok := strings.CutPrefix(fn, "quicspin/internal/")
		if !ok {
			continue
		}
		pkg, _, _ = strings.Cut(pkg, ".")
		switch pkg {
		case "scanner", "transport", "netem", "sim", "h3", "wire", "core", "analysis", "flowtable":
			return pkg
		case "websim", "dns", "asdb", "targets":
			return "websim_dns"
		case "resilience", "shard":
			return "resilience_shard"
		}
	}
	return "other"
}
