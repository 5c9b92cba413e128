package transport

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"coormv2/internal/clock"
	"coormv2/internal/federation"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/view"
)

// TestCallSurvivesServerDeath is the regression test for the nil-reply
// crash: when the connection dies while a call is in flight, the waiter
// used to receive a nil *proto.Message and panic on reply.Type. It must
// receive a connection error instead.
func TestCallSurvivesServerDeath(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		fr := newFrameReader(conn, 0)
		fr.next() // connect
		conn.Write([]byte(`{"type":"connected","app_id":1,"resume":"tok"}` + "\n"))
		fr.next() // the request — never answered
		accepted <- conn
	}()

	app := newResilApp()
	c, err := Dial(ln.Addr().String(), app)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	errCh := make(chan error, 1)
	go func() {
		_, err := c.Request(rms.RequestSpec{Cluster: c0, N: 1, Duration: 1, Type: request.NonPreempt})
		errCh <- err
	}()
	// Kill the connection with the call still pending.
	select {
	case conn := <-accepted:
		conn.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("server never saw the request")
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("call succeeded on a dead connection")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call hung after connection death")
	}
}

// TestUnsolicitedErrorSurfaced pins satellite behaviour: an error frame
// with no sequence number is counted and delivered through the optional
// ErrorHandler instead of being dropped on the floor.
func TestUnsolicitedErrorSurfaced(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		fr := newFrameReader(conn, 0)
		fr.next()
		conn.Write([]byte(`{"type":"connected","app_id":1,"resume":"tok"}` + "\n"))
		conn.Write([]byte(`{"type":"error","reason":"out of band"}` + "\n"))
		// Keep the connection open so the client isn't torn down.
		buf := make([]byte, 1024)
		for {
			if _, err := conn.Read(buf); err != nil {
				conn.Close()
				return
			}
		}
	}()

	app := newResilApp()
	c, err := Dial(ln.Addr().String(), app)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	app.waitFor(t, "the unsolicited error at the ErrorHandler", func() bool {
		return len(app.errs) > 0 && app.errs[0] == "out of band"
	})
	if n := c.UnsolicitedErrors(); n != 1 {
		t.Fatalf("UnsolicitedErrors = %d, want 1", n)
	}
}

// TestOversizedServerFrame pins the client side of the frame limit: a
// too-large server frame surfaces as a structured *OversizedFrameError
// carrying the offending size.
func TestOversizedServerFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		fr := newFrameReader(conn, 0)
		fr.next()
		conn.Write([]byte(`{"type":"connected","app_id":1,"resume":"tok"}` + "\n"))
		fr.next() // the request
		big := append(make([]byte, 600), '\n')
		for i := range big[:600] {
			big[i] = 'x'
		}
		conn.Write(big)
		buf := make([]byte, 1024)
		for {
			if _, err := conn.Read(buf); err != nil {
				conn.Close()
				return
			}
		}
	}()

	app := newResilApp()
	c, err := Dial(ln.Addr().String(), app, Options{MaxFrame: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Request(rms.RequestSpec{Cluster: c0, N: 1, Duration: 1, Type: request.NonPreempt})
	var ofe *OversizedFrameError
	if !errors.As(err, &ofe) {
		t.Fatalf("error = %v, want *OversizedFrameError", err)
	}
	if ofe.Size != 600 || ofe.Limit != 512 {
		t.Fatalf("OversizedFrameError = %+v, want Size=600 Limit=512", ofe)
	}
	if !strings.Contains(ofe.Error(), "600") || !strings.Contains(ofe.Error(), "512") {
		t.Fatalf("error text %q should carry both sizes", ofe.Error())
	}
}

// TestOversizedClientFrame pins the server side: an oversized client
// frame is skipped in place — the session survives, the client gets a
// structured unsolicited error, and the next frame is served normally.
func TestOversizedClientFrame(t *testing.T) {
	srv, addr := startServerMaxFrame(t, 512)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fr := newFrameReader(conn, 0)
	if _, err := conn.Write([]byte(`{"type":"connect"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if line, err := fr.next(); err != nil || !strings.Contains(string(line), "connected") {
		t.Fatalf("handshake: %s, %v", line, err)
	}
	big := append(make([]byte, 600), '\n')
	for i := range big[:600] {
		big[i] = 'x'
	}
	if _, err := conn.Write(big); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte(`{"type":"ping","seq":9}` + "\n")); err != nil {
		t.Fatal(err)
	}
	sawError, sawPong := false, false
	for !sawError || !sawPong {
		line, err := fr.next()
		if err != nil {
			t.Fatalf("read: %v (error=%v pong=%v)", err, sawError, sawPong)
		}
		s := string(line)
		switch {
		case strings.Contains(s, `"error"`) && strings.Contains(s, "600 bytes"):
			sawError = true
		case strings.Contains(s, `"pong"`):
			sawPong = true
		}
	}
	if st := srv.Stats(); st["oversized_frames"] != 1 {
		t.Fatalf("oversized_frames = %d, want 1", st["oversized_frames"])
	}
}

func startServerMaxFrame(t *testing.T, maxFrame int) (*Server, string) {
	t.Helper()
	r := federation.New(federation.Config{
		Clusters:        map[view.ClusterID]int{c0: 16},
		ReschedInterval: 0.01,
		Clock:           clock.NewRealClock(),
	})
	srv := NewServer(r)
	srv.Logf = func(string, ...any) {}
	srv.MaxFrame = maxFrame
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	return srv, addr
}

// TestConcurrentCloseVsCall hammers Close against in-flight calls: no
// call may hang or panic, whatever side wins the race.
func TestConcurrentCloseVsCall(t *testing.T) {
	for i := 0; i < 20; i++ {
		_, addr := startServer(t)
		app := newClientApp()
		c, err := Dial(addr, app)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for j := 0; j < 4; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Outcome is irrelevant; termination is the property.
				c.Request(rms.RequestSpec{Cluster: c0, N: 1, Duration: 1, Type: request.NonPreempt})
			}()
		}
		c.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("calls hung across Close")
		}
	}
}

// TestServerCloseWithQueuedNotifications closes the server while
// sessions have notifications queued; nothing may deadlock and Close
// must return.
func TestServerCloseWithQueuedNotifications(t *testing.T) {
	srv, addr := startServer(t)
	apps := make([]*clientApp, 3)
	clients := make([]*Client, 3)
	for i := range clients {
		apps[i] = newClientApp()
		c, err := Dial(addr, apps[i])
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		if _, err := c.Request(rms.RequestSpec{Cluster: c0, N: 1, Duration: 30, Type: request.NonPreempt}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server Close hung with queued notifications")
	}
	for _, c := range clients {
		c.Close()
	}
}

// TestKillWhileDialing closes the server between Accept and the
// handshake: Dial must fail cleanly, not hang.
func TestKillWhileDialing(t *testing.T) {
	for i := 0; i < 10; i++ {
		srv, addr := startServer(t)
		type dialRes struct {
			c   *Client
			err error
		}
		resCh := make(chan dialRes, 1)
		go func() {
			c, err := Dial(addr, newClientApp())
			resCh <- dialRes{c, err}
		}()
		srv.Close()
		select {
		case res := <-resCh:
			if res.err == nil {
				// The dial won the race — a legal outcome; the client must
				// then close cleanly against the dead server.
				res.c.Close()
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Dial hung across server Close")
		}
	}
}
