// Command perfbench is the repository's benchmark: it builds an FT domain
// through the public core/ftcorba/replication API, drives one named
// workload from a single process, checks the replies and the replicas'
// final state, and prints the metrics as one JSON object on the last line
// of standard output.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 runs the untraced program and reports the end-to-end metrics;
// --trace 1 runs the traced program and reports the per-layer metrics.
// --workload all runs every workload both ways and prints a table.
// README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// traceDir is where the traced program writes its spans, relative to the
// working directory.
const traceDir = ".bench_build/trace"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 10, "measured load duration in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced program and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(*seed, *seconds)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	out, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	info, _ := json.Marshal(map[string]any{"info": out.info})
	fmt.Println(string(info))
	line, _ := json.Marshal(out.summary)
	fmt.Println(string(line))
	return 0
}

// summary is the last line of output; tools that run the benchmark read
// these four keys.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type output struct {
	summary summary
	info    map[string]any
}

// runWorkload runs one workload and returns its result.
func runWorkload(w workload, seed int64, seconds time.Duration, traced bool) (*output, error) {
	r := &runner{w: w, seconds: seconds}
	// The open-loop schedule outlasts the measured window: the load runs
	// on until the last crash episode has seen a write acknowledged.
	r.in = generate(w, seed, seconds, seconds+30*time.Second)
	r.recs = make([]rec, r.in.n)
	// Touch every record now, so the resident set does not grow with the
	// number of ops the run gets through, and take the benchmark's own
	// memory out of mem_rss_mb.
	for i := range r.recs {
		r.recs[i].done = false
	}
	if traced {
		r.tr = newTracer(1 << 20)
	}
	debug.FreeOSMemory() // what an earlier run in this process left behind
	r.rssBase = rssMB()
	if err := r.setup(); err != nil {
		return nil, err
	}
	defer r.d.Stop()
	if err := r.warmup(); err != nil {
		return nil, err
	}
	ph, err := r.measure()
	if err != nil {
		return nil, err
	}
	var side *sideResults
	if traced {
		// The intercepted echoes write to the group: time them before
		// the final check.
		if side, err = r.sidePhases(); err != nil {
			return nil, err
		}
	}
	r.finalCheck()

	var res *result
	var spansFile string
	if traced {
		res = r.perLayer(ph, side)
		spansFile = filepath.Join(traceDir, w.name+".tsv")
		if err := writeSpans(spansFile, append(r.tr.snapshot(), r.episodeSpans()...)); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	} else {
		res = r.endToEnd(ph)
	}

	measured := window{0, int64(seconds)}
	attempted, failed := r.attempted(measured)
	info := map[string]any{
		"workload":      w.name,
		"seed":          seed,
		"seconds":       seconds.Seconds(),
		"traced":        traced,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit(),
		"samples":       res.samples,
		"tail_quantile": res.quant,
		"failed_frac":   float64(failed) / float64(max(attempted, 1)),
		"episodes":      len(r.episodes),
		"peak_rss_mb":   peakRSSMB(),
		"rss_base_mb":   r.rssBase,
		"problems":      r.problems,
		"n_problems":    r.nProblem,
	}
	if spansFile != "" {
		info["spans"] = spansFile
	}
	if w.readFrac > 0 {
		lat, _ := r.latencies(ph.main, readOps)
		d := summarize(lat)
		info["read_p50_us"], info["read_p99_us"], info["read_samples"] = d.p50, d.tail, d.n
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	return &output{
		summary: summary{Correct: r.nProblem == 0, Attempted: attempted, Failed: failed, Metrics: res.metrics},
		info:    info,
	}, nil
}

// commit names the source revision, as run.sh passes it in
// PERFBENCH_COMMIT, or "unknown".
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
