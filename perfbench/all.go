package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runAll runs every workload untraced and traced, each in a fresh process
// so memory and CPU figures are its own, and prints every metric by name
// with its unit. It fails when any run fails or any check does.
func runAll(seed int64, seconds int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", trace)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s trace=%s: %v\n", w.name, trace, err)
				code = 1
				continue
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var s summary
			if err := json.Unmarshal(lines[len(lines)-1], &s); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s trace=%s: bad result line: %v\n", w.name, trace, err)
				code = 1
				continue
			}
			if !s.Correct {
				code = 1
			}
			kind := "end-to-end"
			if trace == "1" {
				kind = "per-layer"
			}
			fmt.Printf("%s (%s) correct=%v attempted=%d failed=%d\n", w.name, kind, s.Correct, s.Attempted, s.Failed)
			names := make([]string, 0, len(s.Metrics))
			for n := range s.Metrics {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Printf("  %-36s %14.4f %s\n", n, s.Metrics[n].Value, s.Metrics[n].Unit)
			}
		}
	}
	return code
}
