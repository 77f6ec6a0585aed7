package rpc

import (
	"context"
	"errors"
	"testing"

	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/trace"
)

func newTestNet(t *testing.T) (*Network, *metrics.Registry) {
	t.Helper()
	m := metrics.NewRegistry()
	n := NewNetwork(Config{}, m)
	if err := n.AddHost("rs1"); err != nil {
		t.Fatal(err)
	}
	return n, m
}

func TestCallDispatchAndMetering(t *testing.T) {
	n, m := newTestNet(t)
	err := n.Handle("rs1", "echo", func(_ context.Context, req Message) (Message, error) {
		return req, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := n.Dial("rs1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	resp, err := conn.Call("echo", Bytes("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.(Bytes)) != "hello" {
		t.Errorf("resp = %q", resp)
	}
	if got := m.Get(metrics.RPCCalls); got != 1 {
		t.Errorf("calls = %d", got)
	}
	if got := m.Get(metrics.RPCBytesSent); got != 5 {
		t.Errorf("bytes sent = %d", got)
	}
	if got := m.Get(metrics.RPCBytesReceived); got != 5 {
		t.Errorf("bytes received = %d", got)
	}
	if got := m.Get(metrics.ConnectionsCreated); got != 1 {
		t.Errorf("connections = %d", got)
	}
}

func TestUnknownHostAndMethod(t *testing.T) {
	n, _ := newTestNet(t)
	if _, err := n.Dial("nope"); !errors.Is(err, ErrUnknownHost) {
		t.Errorf("Dial unknown: %v", err)
	}
	conn, _ := n.Dial("rs1")
	if _, err := conn.Call("missing", nil); !errors.Is(err, ErrUnknownMethod) {
		t.Errorf("Call unknown method: %v", err)
	}
	if err := n.Handle("nope", "m", nil); !errors.Is(err, ErrUnknownHost) {
		t.Errorf("Handle unknown host: %v", err)
	}
}

func TestDuplicateHost(t *testing.T) {
	n, _ := newTestNet(t)
	if err := n.AddHost("rs1"); err == nil {
		t.Error("duplicate AddHost must fail")
	}
}

func TestHostDown(t *testing.T) {
	n, _ := newTestNet(t)
	if err := n.Handle("rs1", "m", func(context.Context, Message) (Message, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	conn, err := n.Dial("rs1")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetDown("rs1", true); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Call("m", nil); !errors.Is(err, ErrHostDown) {
		t.Errorf("call to down host: %v", err)
	}
	if _, err := n.Dial("rs1"); !errors.Is(err, ErrHostDown) {
		t.Errorf("dial to down host: %v", err)
	}
	if err := n.SetDown("rs1", false); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Call("m", nil); err != nil {
		t.Errorf("call after recovery: %v", err)
	}
	if err := n.SetDown("ghost", true); !errors.Is(err, ErrUnknownHost) {
		t.Errorf("SetDown unknown host: %v", err)
	}
}

func TestClosedConn(t *testing.T) {
	n, _ := newTestNet(t)
	conn, _ := n.Dial("rs1")
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal("double close must be harmless")
	}
	if _, err := conn.Call("m", nil); !errors.Is(err, ErrConnClosed) {
		t.Errorf("call on closed conn: %v", err)
	}
}

func TestHandlerError(t *testing.T) {
	n, _ := newTestNet(t)
	boom := errors.New("boom")
	_ = n.Handle("rs1", "fail", func(context.Context, Message) (Message, error) { return nil, boom })
	conn, _ := n.Dial("rs1")
	if _, err := conn.Call("fail", nil); !errors.Is(err, boom) {
		t.Errorf("handler error: %v", err)
	}
}

func TestHosts(t *testing.T) {
	n, _ := newTestNet(t)
	_ = n.AddHost("rs2")
	hosts := n.Hosts()
	if len(hosts) != 2 {
		t.Errorf("Hosts = %v", hosts)
	}
}

func TestNilMessagesMeterZero(t *testing.T) {
	n, m := newTestNet(t)
	_ = n.Handle("rs1", "void", func(context.Context, Message) (Message, error) { return nil, nil })
	conn, _ := n.Dial("rs1")
	if _, err := conn.Call("void", nil); err != nil {
		t.Fatal(err)
	}
	if m.Get(metrics.RPCBytesSent) != 0 || m.Get(metrics.RPCBytesReceived) != 0 {
		t.Error("nil messages must meter zero bytes")
	}
}

// An untraced call builds neither its span's name nor its latency
// histogram's, yet the histogram is the method's; a traced call still
// names its span after the method.
func TestCallNamesWithoutAllocating(t *testing.T) {
	n, m := newTestNet(t)
	if err := n.Handle("rs1", "echo", func(_ context.Context, req Message) (Message, error) { return req, nil }); err != nil {
		t.Fatal(err)
	}
	conn, err := n.Dial("rs1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var req Message = Bytes("hello")
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := conn.CallContext(ctx, "echo", req); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("untraced call allocates %.1f objects, want 0", allocs)
	}
	if got := m.Histogram(metrics.HistRPCLatencyPrefix + "echo").Count(); got < 100 {
		t.Errorf("echo latency histogram counts %d calls, want at least 100", got)
	}
	tr := trace.New("q")
	if _, err := conn.CallContext(trace.NewContext(ctx, tr), "echo", req); err != nil {
		t.Fatal(err)
	}
	if spans := tr.Find("rpc:echo"); len(spans) != 1 || spans[0].Tag("host") != "rs1" {
		t.Errorf("traced call recorded spans %v, want one rpc:echo on rs1", spans)
	}
}
