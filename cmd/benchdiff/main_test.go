package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const baselineJSON = `{
  "BenchmarkA": {"ns_op": 1000, "b_op": 64, "allocs_op": 10},
  "BenchmarkB": {"ns_op": 2000, "allocs_op": 0}
}`

// What the gate answers for each kind of comparison: the exit code and the
// line it prints.
func TestRunGatesRegressions(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", baselineJSON)
	for _, c := range []struct {
		name    string
		current string // "" = no -current file
		flags   []string
		code    int
		says    string
	}{
		{"identical files", baselineJSON, nil, 0, "OK — 2 benchmarks within 25% of baseline"},
		{"alloc regression", `{"BenchmarkA": {"ns_op": 1000, "allocs_op": 12}, "BenchmarkB": {"ns_op": 2000}}`,
			[]string{"-warn-ns"}, 1, "REGRESSION BenchmarkA: 10 -> 12 allocs/op"},
		{"ns regression under -warn-ns", `{"BenchmarkA": {"ns_op": 2000, "allocs_op": 10}, "BenchmarkB": {"ns_op": 2000}}`,
			[]string{"-warn-ns"}, 0, "ns/op regressions warn only (-warn-ns), not failing the build"},
		{"missing benchmark", `{"BenchmarkA": {"ns_op": 1000, "allocs_op": 10}}`,
			[]string{"-warn-ns"}, 1, "MISSING from current run (renamed or dropped?): BenchmarkB"},
		{"bad flag", "", []string{"-no-such-flag"}, 2, "flag provided but not defined"},
	} {
		t.Run(c.name, func(t *testing.T) {
			args := c.flags
			if c.current != "" {
				cur := write(strings.ReplaceAll(c.name, " ", "-")+".json", c.current)
				args = append([]string{"-baseline", base, "-current", cur}, args...)
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit %d, want %d; stdout:\n%s\nstderr:\n%s", code, c.code, stdout.String(), stderr.String())
			}
			if out := stdout.String() + stderr.String(); !strings.Contains(out, c.says) {
				t.Fatalf("output does not say %q:\n%s", c.says, out)
			}
		})
	}
}

// Parse mode turns `go test -bench` text into the JSON the gate compares,
// dropping the run-wide GOMAXPROCS suffix and keeping the best of repeats.
func TestRunParsesBenchOutput(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.out")
	out := filepath.Join(dir, "current.json")
	text := "BenchmarkA-2   100   1200 ns/op   64 B/op   10 allocs/op\n" +
		"BenchmarkA-2   100   1000 ns/op   64 B/op   10 allocs/op\n" +
		"BenchmarkB/shards-8-2   50   2000 ns/op\nPASS\n"
	if err := os.WriteFile(in, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-parse", in, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	f, err := load(out)
	if err != nil {
		t.Fatal(err)
	}
	if got := f["BenchmarkA"]; got.NsPerOp != 1000 || got.AllocsPerOp != 10 {
		t.Errorf("BenchmarkA = %+v, want the 1000 ns/op run", got)
	}
	if _, ok := f["BenchmarkB/shards-8"]; !ok {
		t.Errorf("parsed %v, want BenchmarkB/shards-8 with its own -8 kept", f)
	}
}
