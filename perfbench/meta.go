package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"prestocs/internal/cache"
)

// pageCacheBudget is the storage node's hot-page cache size, the budget
// paper-scan's working set must exceed and point-hot's must fit.
const pageCacheBudget = cache.DefaultPageCacheBytes

// runMeta identifies the machine and the code a result came from.
type runMeta struct {
	Workload     string `json:"workload"`
	Why          string `json:"why"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        int    `json:"trace"`
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"nproc"`
	CPUModel     string `json:"cpu_model"`
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
	Started      string `json:"started"`
}

func collectMeta(def workloadDef, seed int64, seconds, trace int) runMeta {
	return runMeta{
		Workload:     def.name,
		Why:          workloadWhy("BENCHMARK.json", def.name),
		Seed:         seed,
		Seconds:      seconds,
		Trace:        trace,
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		Commit:       commit(),
		SourceDigest: sourceDigest("."),
		Started:      time.Now().UTC().Format(time.RFC3339),
	}
}

func (m runMeta) print() {
	fmt.Printf("# workload %s seed %d seconds %d trace %d\n", m.Workload, m.Seed, m.Seconds, m.Trace)
	fmt.Printf("# why: %s\n", m.Why)
	fmt.Printf("# go %s GOMAXPROCS %d nproc %d cpu %q\n", m.GoVersion, m.GOMAXPROCS, m.NumCPU, m.CPUModel)
	fmt.Printf("# commit %s source %s\n", m.Commit, m.SourceDigest)
}

// workloadWhy is the workload's reason as BENCHMARK.json at path gives
// it, or "unknown".
func workloadWhy(path, name string) string {
	body, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
	}
	if json.Unmarshal(body, &spec) != nil {
		return "unknown"
	}
	for _, w := range spec.Workloads {
		if w.Name == name {
			return w.Why
		}
	}
	return "unknown"
}

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

// commit is the checked-out git commit, or "unknown" when the working
// directory is not the root of a git work tree; sourceDigest names the
// code then.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the Go sources and module files under root, so a
// result names the code it measured even where no git metadata exists.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		body, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(body))
		h.Write(body)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
