package main

import (
	"bytes"
	"strings"
	"testing"
)

// What entk-experiments does with each kind of command line: the exit code
// and what it says (a rendered figure on stdout, a complaint on stderr).
func TestRun(t *testing.T) {
	for _, c := range []struct {
		name   string
		args   []string
		code   int
		stdout string
		stderr string
	}{
		{"bad flag", []string{"-no-such-flag"}, 2, "", "flag provided but not defined"},
		{"unknown experiment", []string{"-exp", "0,12"}, 2, "", `unknown experiment "12"`},
		{"Fig 6 at 2000 tasks", []string{"-exp", "0", "-tasks", "2000"}, 0,
			"Fig 6: EnTK prototype, producers/consumers over the broker", "completed in"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, c.code, stderr.String())
			}
			if !strings.Contains(stdout.String(), c.stdout) {
				t.Errorf("stdout does not say %q:\n%s", c.stdout, stdout.String())
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr does not say %q:\n%s", c.stderr, stderr.String())
			}
		})
	}
}
