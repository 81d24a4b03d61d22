// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time and prints its metrics, as the last line of standard
// output, in one JSON object:
//
//	bash perfbench/run.sh --workload morc-gcc --seed 0 --seconds 36 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run;
// --trace 1 reports the per-layer metrics of a traced run. See
// README.md beside this file for the workloads and metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
)

const (
	// defaultSeed is the seed whose simulated outputs are pinned in
	// pinnedDigests. It leaves the paper's profiles unchanged.
	defaultSeed = 0
	// tailBeyond is how many jobs the tail percentile leaves above it.
	tailBeyond = 10
	// maxProcs caps GOMAXPROCS: the benchmark is sized for a 2-CPU host.
	maxProcs = 2
)

func main() {
	workload := flag.String("workload", "", "workload to run (see README.md)")
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 36, "measurement time in seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	if runtime.GOMAXPROCS(0) > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}

	ctx := context.Background()
	var o *outcome
	switch {
	case *workload == clusterWorkload:
		o = measureCluster(ctx, *seed, *seconds, *traced == 1)
	default:
		w, ok := simWorkloadNamed(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, workloadNames())
			os.Exit(2)
		}
		if *traced == 1 {
			o = measureSimTraced(ctx, w, *seed, *seconds)
		} else {
			o = measureSim(ctx, w, *seed, *seconds)
		}
	}

	set := endToEnd
	if *traced == 1 {
		set = perLayer
	} else {
		if o.Attempted > 0 {
			o.Values["ok_frac"] = float64(o.Attempted-o.Failed) / float64(o.Attempted)
		}
		o.Values["peak_rss_mb"] = peakRSSMB()
	}
	fmt.Printf("host: num_cpu=%d GOMAXPROCS=%d %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if err := o.write(os.Stdout, set); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func simWorkloadNamed(name string) (simWorkload, bool) {
	for _, w := range simWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return simWorkload{}, false
}

// workloadNames lists every workload, the simulator ones first.
func workloadNames() []string {
	var out []string
	for _, w := range simWorkloads {
		out = append(out, w.name)
	}
	return append(out, clusterWorkload)
}

// peakRSSMB is the peak resident memory of this process.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
