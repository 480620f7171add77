package transport

import (
	"bufio"
	"bytes"
	"io"
	"testing"
	"unsafe"
)

// same reports whether a and b start at the same array element.
func same(a, b []byte) bool {
	return cap(a) > 0 && cap(b) > 0 && unsafe.SliceData(a) == unsafe.SliceData(b)
}

// A body handed back with Release is what the read pump reads a later frame
// into.
func TestReleasedBodyIsReused(t *testing.T) {
	ca, cb := pipePair(t, Options{HeartbeatInterval: -1})
	if err := ca.Send(bytes.Repeat([]byte{1}, 100)); err != nil {
		t.Fatal(err)
	}
	first, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	cb.Release(first)
	// The read pump waits for the next length with no body in hand: it takes
	// one off the free list only once it knows the frame's size.
	if err := ca.Send(bytes.Repeat([]byte{2}, 60)); err != nil {
		t.Fatal(err)
	}
	second, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !same(first, second) {
		t.Fatal("the frame after a release was read into a new body")
	}
	if len(second) != 60 || second[0] != 2 || second[59] != 2 {
		t.Fatalf("reused body reads %d bytes %v…, want 60 of 2", len(second), second[:1])
	}

	// A frame the released body cannot hold gets a new one with room to
	// spare, and that one is reused for the next frame of the same size.
	cb.Release(second)
	big := bytes.Repeat([]byte{3}, 1000)
	if err := ca.Send(big); err != nil {
		t.Fatal(err)
	}
	third, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if same(third, first) || !bytes.Equal(third, big) || cap(third) != 1024 {
		t.Fatalf("an outgrown body: reused %v, %d bytes with room for %d, want a new one with room for 1024",
			same(third, first), len(third), cap(third))
	}
}

// A body nobody handed back stays the receiver's: no later frame, however
// many bodies are released around it, is read into it.
func TestUnreleasedBodyIsNeverWritten(t *testing.T) {
	ca, cb := pipePair(t, Options{HeartbeatInterval: -1})
	if err := ca.Send(bytes.Repeat([]byte{0xAA}, 64)); err != nil {
		t.Fatal(err)
	}
	kept, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := ca.Send(bytes.Repeat([]byte{byte(i)}, 1+i%64)); err != nil {
			t.Fatal(err)
		}
		got, err := cb.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if same(got, kept) {
			t.Fatalf("frame %d was read into a body never released", i)
		}
		cb.Release(got)
	}
	if !bytes.Equal(kept, bytes.Repeat([]byte{0xAA}, 64)) {
		t.Fatal("a body never released was written to")
	}
}

// A SendBuffer body comes back through Buffer once it is on the socket; a
// Send body never does.
func TestSentBufferComesBack(t *testing.T) {
	ca, cb := pipePair(t, Options{HeartbeatInterval: -1})
	go func() { // net.Pipe is unbuffered: someone must read for Flush to return
		for {
			if _, err := cb.Recv(); err != nil {
				return
			}
		}
	}()
	plain := []byte("sent with Send")
	if err := ca.Send(plain); err != nil {
		t.Fatal(err)
	}
	if err := ca.Flush(); err != nil {
		t.Fatal(err)
	}
	if b := ca.Buffer(); b != nil {
		t.Fatalf("Buffer handed out %d bytes of room after a plain Send", cap(b))
	}
	owned := append(make([]byte, 0, 256), "sent with SendBuffer"...)
	if err := ca.SendBuffer(owned); err != nil {
		t.Fatal(err)
	}
	if err := ca.Flush(); err != nil {
		t.Fatal(err)
	}
	back := ca.Buffer()
	if !same(back, owned) || len(back) != 0 || cap(back) != 256 {
		t.Fatalf("Buffer returned %d bytes of %d, same array %v; want the written body, emptied",
			len(back), cap(back), same(back, owned))
	}
	if b := ca.Buffer(); b != nil {
		t.Fatal("one body came back twice")
	}
	if !bytes.Equal(plain, []byte("sent with Send")) {
		t.Fatal("a Send body was written to")
	}
}

// WriteFrame into a bufio.Writer writes the length through the writer's own
// buffer, also when that is too full to take it and must be flushed first.
func TestWriteFrameToBufioAllocatesNothing(t *testing.T) {
	bw := bufio.NewWriterSize(io.Discard, 4096)
	body := bytes.Repeat([]byte{7}, 1000)
	if allocs := testing.AllocsPerRun(200, func() {
		if err := WriteFrame(bw, body); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("WriteFrame into a bufio.Writer: %v allocations, want 0", allocs)
	}

	var out bytes.Buffer
	bw = bufio.NewWriterSize(&out, 16)
	bw.Write(bytes.Repeat([]byte{1}, 12)) //nolint:errcheck // fills all but 4 bytes
	if err := WriteFrame(bw, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(bufio.NewReader(bytes.NewReader(out.Bytes()[12:])))
	if err != nil || string(got) != "tail" {
		t.Fatalf("frame after a flush for room: %q, %v", got, err)
	}
}
