package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steadiness runs each workload (or the one named) once per seed in a
// child process and prints, for every metric, its median and its
// interquartile spread as a share of the median — the figure a metric's
// regression bound has to stay clear of.
func steadiness(name string, seed int64, seconds, repeat int, out string) error {
	var defs []workloadDef
	if name == "" || name == "all" {
		defs = workloads
	} else if def, ok := findWorkload(name); ok {
		defs = []workloadDef{def}
	} else {
		return fmt.Errorf("unknown workload %q", name)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, def := range defs {
		values := map[string][]float64{}
		units := map[string]string{}
		failed := 0
		for i := 0; i < repeat; i++ {
			s := seed + int64(i)
			cmd := exec.Command(self, "--workload", def.name, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", "0", "--out", out)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", def.name, s, err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: reading result: %w", def.name, s, err)
			}
			failed += res.Failed
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
			fmt.Printf("%s seed %d: %s\n", def.name, s, lines[len(lines)-1])
		}
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("# %s: %d runs, %d failed operations\n", def.name, repeat, failed)
		fmt.Printf("%-24s %14s %14s %14s %9s\n", "metric", "q1", "median", "q3", "spread")
		for _, k := range keys {
			q1, q2, q3 := quartiles(values[k])
			fmt.Printf("%-24s %14.4f %14.4f %14.4f %8.2f%% %s\n", k, q1, q2, q3, 100*spread(values[k]), units[k])
		}
	}
	return nil
}
