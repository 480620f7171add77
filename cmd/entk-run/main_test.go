package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/entk"
)

// Flag validation, -check and in-process runs: what reaches stdout and
// stderr, and the exit code — 2 for a command line that cannot be run, 1 for
// an application that cannot be loaded, 0 otherwise.
func TestRunValidatesFlagsAndChecksDescriptions(t *testing.T) {
	dir := t.TempDir()
	malformed := filepath.Join(dir, "malformed.json")
	if err := os.WriteFile(malformed, []byte(`{"resource": {"name": "titan", "cores": 64`), 0o644); err != nil {
		t.Fatal(err)
	}
	unbuildable := filepath.Join(dir, "no-pipelines.json")
	if err := os.WriteFile(unbuildable, []byte(`{"resource": {"name": "titan", "cores": 64, "walltime_s": 60}, "pipelines": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		args   []string
		code   int
		stdout []string // substrings; none means nothing at all
		stderr string
	}{
		{name: "missing -app", args: nil, code: 2, stderr: "-app is required"},
		{name: "-resume without -journal", args: []string{"-app", "example-app.json", "-resume"}, code: 2, stderr: "-resume requires -journal"},
		{name: "unknown flag", args: []string{"-no-such-flag"}, code: 2, stderr: "flag provided but not defined"},
		{name: "unreadable app file", args: []string{"-app", filepath.Join(dir, "absent.json")}, code: 1, stderr: "absent.json"},
		{name: "-check on a valid description", args: []string{"-app", "example-app.json", "-check"}, code: 0,
			stdout: []string{"example-app.json: valid — 2 pipelines / 18 tasks on titan (64 cores)"}},
		{name: "-check on malformed JSON", args: []string{"-app", malformed, "-check"}, code: 1, stderr: "entk-run: "},
		{name: "-check on a description that does not build", args: []string{"-app", unbuildable, "-check"}, code: 1, stderr: "entk-run: "},
		// archive runs after ensemble-md, so it is canceled once ensemble-md
		// is DONE and archive's own task has started.
		{name: "-cancel a pipeline once its task is in flight", args: []string{"-app", "example-app.json", "-scale", "100us", "-v", "-cancel", "archive"}, code: 0,
			stdout: []string{`canceled pipeline "archive"`, fmt.Sprintf("pipeline %-24s %s\n", "ensemble-md", "DONE"), fmt.Sprintf("pipeline %-24s %s\n", "archive", "CANCELED")}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Errorf("exit code %d, want %d", code, c.code)
			}
			if (len(c.stdout) == 0) != (stdout.Len() == 0) {
				t.Errorf("stdout = %q, want %q", stdout.String(), c.stdout)
			}
			for _, want := range c.stdout {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout = %q, want it to contain %q", stdout.String(), want)
				}
			}
			if (c.stderr == "") != (stderr.Len() == 0) || !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr = %q, want it to contain %q", stderr.String(), c.stderr)
			}
		})
	}
}

func TestRenderStoreStats(t *testing.T) {
	var out bytes.Buffer
	renderStoreStats(&out, entk.StoreStats{
		Shards: 4, Steals: 3, Schedulers: 2,
		SchedulerPulls: []uint64{5, 7}, SchedulerDispatches: []uint64{40, 24},
	})
	const want = "scheduler pool: 2 loops over 4 store shards — 12 pulls (3 steals), 64 tasks dispatched\n"
	if out.String() != want {
		t.Errorf("got  %q\nwant %q", out.String(), want)
	}
	// An RTS without a scheduler pool has no line to print.
	out.Reset()
	renderStoreStats(&out, entk.StoreStats{Shards: 4})
	if out.Len() != 0 {
		t.Errorf("no schedulers, yet printed %q", out.String())
	}
}
