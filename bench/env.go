package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// environment is the host description stated next to every set of numbers.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	JournalFS  string `json:"journal_fs"`
}

// loadWorkers is W, the closed loop's client count: every workload runs with
// GOMAXPROCS = W = min(nproc, 4) scanner workers or feeders.
func loadWorkers() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func describeEnvironment(journalDir string) environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		JournalFS:  fsType(journalDir),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir: the type of the longest mount
// point in /proc/self/mountinfo that is a prefix of dir's absolute path.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, bestType := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// "36 35 98:0 /mnt1 /mnt2 rw,noatime - ext3 /dev/root rw"
		pre, post, ok := strings.Cut(sc.Text(), " - ")
		fields := strings.Fields(pre)
		if !ok || len(fields) < 5 {
			continue
		}
		mount := fields[4]
		under := abs == mount || mount == "/" || strings.HasPrefix(abs, mount+"/")
		if under && len(mount) > len(best) {
			best, bestType = mount, strings.Fields(post)[0]
		}
	}
	return bestType
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM). Where
// /proc is missing it falls back to the memory the Go runtime obtained from
// the OS, and says so.
func peakRSSMiB() (mib float64, note string) {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64); err == nil {
					return kb / 1024, ""
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20), "peak_rss_mib: no VmHWM on this platform; reporting runtime.MemStats.Sys"
}
