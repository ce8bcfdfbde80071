package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// cpuLayers are the layers whose self CPU time the traced run reports
// as cpu.<layer>_s. Every other layer still receives its samples (see
// layerOf), so the reported figures never double count.
var cpuLayers = []string{
	"cache", "hw", "memory", "kernel", "core", "workload",
	"channel", "mi", "snapshot", "enc", "service", "http", "gc",
}

// gcPrefixes name the runtime functions that do garbage-collection work
// (marking, sweeping, write barriers, assists).
var gcPrefixes = []string{
	"runtime.gc", "runtime.scan", "runtime.greyobject", "runtime.markroot",
	"runtime.findObject", "runtime.(*gcWork)", "runtime.(*gcBits)",
	"runtime.(*gcControllerState)", "runtime.sweepone", "runtime.bgsweep",
	"runtime.(*mspan).sweep", "runtime.(*sweepLocked)", "runtime.(*sweepLocker)",
	"runtime.wbBuf", "runtime.bulkBarrier", "runtime.markBits",
	"runtime.(*markBits)", "runtime.heapBits", "runtime.(*mspan).heapBits",
	"runtime.typePointers", "runtime.(*mspan).typePointersOf",
	"runtime.(*typePointers)", "runtime.spanOf", "runtime.pageIndexOf",
	"runtime.(*mspan).markBitsForIndex", "runtime.(*mspan).isFree",
	"runtime.(*mheap).freeSpan", "runtime.(*pageAlloc).scavenge",
	"runtime.bgscavenge", "runtime.(*scavengerState)", "runtime.wbMove",
	"runtime.(*gcCPULimiterState)", "runtime.stopTheWorld", "runtime.startTheWorld",
}

// funcPackage returns the import path of a symbolized Go function name:
// "timeprotection/internal/cache.(*Hierarchy).access" ->
// "timeprotection/internal/cache".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf assigns a function to exactly one layer: the repository's
// packages by their directory name under internal/, this benchmark (the
// main package) as "bench", the Go runtime's collector as "gc", the
// HTTP stack as "http", and everything else to a coarse bucket.
func layerOf(fn string) string {
	pkg := funcPackage(fn)
	switch {
	case strings.HasPrefix(pkg, "timeprotection/internal/"):
		rest := strings.TrimPrefix(pkg, "timeprotection/internal/")
		if i := strings.Index(rest, "/"); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case pkg == "main":
		return "bench"
	case pkg == "runtime":
		for _, p := range gcPrefixes {
			if strings.HasPrefix(fn, p) {
				return "gc"
			}
		}
		return "runtime"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "bufio" ||
		strings.HasPrefix(pkg, "mime") || pkg == "vendor/golang.org/x/net/http/httpguts" ||
		strings.HasPrefix(pkg, "vendor/golang.org/x/net/"):
		return "http"
	case pkg == "syscall" || pkg == "internal/poll" || pkg == "os" || strings.HasPrefix(pkg, "internal/syscall"):
		return "syscall"
	default:
		return "other"
	}
}

// startCPUProfile starts the sampled CPU profile of the traced pass.
func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// pprofTop runs `go tool pprof -top` over a CPU profile with no node
// pruning and returns its text.
func pprofTop(profile, tmpDir string) (string, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", profile)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+tmpDir)
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go tool pprof: %w", err)
	}
	return string(out), nil
}

// reduceTop sums the flat (self) column of a `pprof -top` listing per
// layer. total is the sum over every listed function, so the layers
// partition it exactly.
func reduceTop(top string) (layers map[string]float64, total float64, err error) {
	layers = map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(top))
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) == 5 && f[0] == "flat" && f[4] == "cum%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			return nil, 0, fmt.Errorf("pprof -top line %q: %w", sc.Text(), err)
		}
		s := d.Seconds()
		layers[layerOf(strings.Join(f[5:], " "))] += s
		total += s
	}
	if !inTable {
		return nil, 0, fmt.Errorf("pprof -top output has no table")
	}
	return layers, total, sc.Err()
}
