// Command perfbench is the end-to-end benchmark of the mediator. It builds
// a workload's mediator and serve.Server in process, the way cmd/mediatord
// does with default flags, drives it with query text through qparse.Parse
// and the public Server calls, checks every answer against an uncached
// mediator, and prints the metrics named in BENCHMARK.json. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// With --trace 0 a run measures the end-to-end metrics: set-up time, a
// closed loop with one client per CPU, and an open loop at the workload's
// fixed rate. With --trace 1 it measures the per-layer metrics instead, in a
// separate single-client run that times calls into each layer from outside.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload catalog-union --seed 1 --seconds 52 --trace 0 \
//	    --rate catalog-union=20 --rate translate-fresh=2500
//
// The command exits 1 when any answer is wrong or any request failed, and 2
// on a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// rateFlag collects --rate workload=ops/s pairs.
type rateFlag map[string]float64

func (r rateFlag) String() string { return fmt.Sprint(map[string]float64(r)) }

func (r rateFlag) Set(v string) error {
	name, num, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want workload=ops/s, got %q", v)
	}
	f, err := strconv.ParseFloat(num, 64)
	if err != nil || f <= 0 {
		return fmt.Errorf("bad rate %q", num)
	}
	r[name] = f
	return nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the parsed command-line flags.
type options struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	rate    float64
	plant   string
}

func main() {
	rates := rateFlag{}
	name := flag.String("workload", "", "workload: catalog-union or translate-fresh")
	seed := flag.Int64("seed", 1, "seed for the data and the request stream")
	seconds := flag.Float64("seconds", 52, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	holdout := flag.Int64("holdout-seed", 0, "seed reserved for confirming a claimed gain; never tune on it")
	plant := flag.String("plant", "", "planted defect the run must report: drop-tuple or true-translator")
	flag.Var(rates, "rate", "open-loop rate of a workload, as workload=ops/s (repeatable)")
	flag.Parse()

	opt := options{w: workloadByName(*name), seed: *seed, seconds: *seconds, trace: *trace == 1, plant: *plant}
	switch {
	case opt.w == nil:
		usage("unknown workload %q", *name)
	case *trace != 0 && *trace != 1:
		usage("--trace must be 0 or 1")
	case opt.seconds < 1:
		usage("--seconds must be at least 1")
	case opt.plant != plantNone && opt.plant != plantDrop && opt.plant != plantTrueSpec:
		usage("unknown planted defect %q", opt.plant)
	case rates[*name] == 0:
		usage("no --rate for workload %s", *name)
	}
	opt.rate = rates[*name]
	if *holdout != 0 && *holdout == opt.seed {
		fmt.Printf("note: seed %d is the held-out seed; use it only to confirm a claim\n", opt.seed)
	}

	var res result
	if opt.trace {
		res = runTraced(opt)
	} else {
		res = runEndToEnd(opt)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// table prints metrics as aligned name/value/unit rows, with an optional
// note per metric.
func table(title string, ms map[string]metric, notes map[string]string) {
	fmt.Printf("\n%s\n", title)
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.4f %-6s %s\n", n, ms[n].Value, ms[n].Unit, notes[n])
	}
}
