package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// samples holds per-operation latencies. Quantiles are exact order
// statistics of the recorded samples, never bucket estimates.
type samples []time.Duration

// quantile returns the nearest-rank q-quantile: the smallest sample with
// at least a q share of the samples at or below it. The receiver must be
// sorted.
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(float64(len(s))*q)) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func (s samples) sort() { slices.Sort(s) }

func (s samples) mean() time.Duration {
	if len(s) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return sum / time.Duration(len(s))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latencies reports the exact median of s and the given tail quantiles
// as <kind>_p<q>_us, each with its sample count (see endToEnd for which
// of them are bounded).
func (r *result) latencies(kind string, s samples, tails ...string) {
	s.sort()
	r.setQ(kind+"_p50_us", us(s.quantile(0.5)), "us", len(s))
	for _, t := range tails {
		r.setQ(kind+"_p"+t+"_us", us(s.quantile(tailQuantiles[t])), "us", len(s))
	}
}

var tailQuantiles = map[string]float64{"99": 0.99, "999": 0.999}

// liveHeapMiB forces a collection and returns the bytes occupied by heap
// objects, in MiB — the same runtime/metrics figure segserve exports as
// segserve_go_heap_objects_bytes.
func liveHeapMiB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// env is the host description recorded with every result, so that figures
// from different machines are never compared silently.
type env struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	L2         string `json:"l2"`
	L3         string `json:"l3"`
	Seed       int64  `json:"seed"`
}

func environment(seed int64) env {
	return env{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		L2:         cacheSize(2),
		L3:         cacheSize(3),
		Seed:       seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// cacheSize reads the size of the first unified or data cache of the given
// level that cpu0 reports.
func cacheSize(level int) string {
	for i := 0; i < 8; i++ {
		dir := "/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/"
		l, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		t, _ := os.ReadFile(dir + "type")
		if strings.TrimSpace(string(l)) != strconv.Itoa(level) || strings.TrimSpace(string(t)) == "Instruction" {
			continue
		}
		if size, err := os.ReadFile(dir + "size"); err == nil {
			return strings.TrimSpace(string(size))
		}
	}
	return "unknown"
}
