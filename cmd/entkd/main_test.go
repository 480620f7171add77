package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// What entkd does with a command line it cannot start from: the exit code
// and what it says on stderr.
func TestRunRejectsBadCommandLines(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "entkd.sock")
	for _, c := range []struct {
		name string
		args []string
		code int
		says string
	}{
		{"unknown flag", []string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{"no socket", nil, 2, "-socket is required"},
		{"negative schedulers", []string{"-socket", sock, "-schedulers", "-1"}, 2, "-schedulers -1: negative"},
		{"bad tenant spec", []string{"-socket", sock, "-tenants", "alice"}, 1, `bad tenant spec "alice"`},
		{"bad tenant weight", []string{"-socket", sock, "-tenants", "alice:0"}, 1, `bad tenant weight in "alice:0"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, c.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.says) {
				t.Fatalf("stderr does not say %q:\n%s", c.says, stderr.String())
			}
		})
	}
}

// A daemon serves its socket until it is signalled, then drains, and exits 0
// with no lease leaked.
func TestRunServesUntilSignalled(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "entkd.sock")
	var stdout, stderr bytes.Buffer
	exited := make(chan int, 1)
	go func() {
		exited <- run([]string{"-socket", sock, "-cores", "8", "-walltime", "1h"}, &stdout, &stderr)
	}()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if _, err := os.Stat(sock); err == nil {
			break
		}
		select {
		case code := <-exited:
			t.Fatalf("exited %d before serving; stderr:\n%s", code, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("the socket never appeared")
		}
	}
	// run handles SIGTERM from before it binds the socket, so the signal
	// reaches it and not the test binary's default handler.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exited:
		if code != 0 {
			t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the daemon did not shut down")
	}
	for _, line := range []string{"entkd: serving titan (8 cores) on " + sock, "terminated — draining 0 runs", "leaked leases: 0"} {
		if !strings.Contains(stdout.String(), line) {
			t.Fatalf("stdout does not say %q:\n%s", line, stdout.String())
		}
	}
}
