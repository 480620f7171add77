package daemon

import (
	"bufio"
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/msgcodec"
	"repro/internal/transport"
)

// A request that is not a msgcodec frame — here the retired JSON submit
// document — is answered with an "error" run-op, not left hanging, and
// admits nothing.
func TestServerRejectsJSONSubmit(t *testing.T) {
	d := newTestDaemon(t, func(cfg *Config) {
		cfg.SocketPath = filepath.Join(t.TempDir(), "entkd.sock")
	})
	srv, err := d.Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("unix", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // a hang fails the read below
	if err := transport.WriteFrame(conn, []byte(`{"tenant":"alice","app_json":"e30="}`)); err != nil {
		t.Fatal(err)
	}
	body, err := transport.ReadFrame(bufio.NewReader(conn))
	if err != nil {
		t.Fatalf("no reply to a JSON submit: %v", err)
	}
	op, err := msgcodec.DecodeRunOp(body)
	if err != nil {
		t.Fatal(err)
	}
	if op.Op != "error" || op.OK || op.Err == "" {
		t.Fatalf("reply = %+v, want an error run-op", op)
	}
	if runs := d.List(); len(runs) != 0 {
		t.Fatalf("JSON submit admitted a run: %+v", runs)
	}
}
