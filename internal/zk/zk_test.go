package zk

import (
	"errors"
	"testing"
	"time"
)

func TestCreateGetSetDelete(t *testing.T) {
	s := NewServer()
	sess := s.NewSession()
	defer sess.Close()

	if err := sess.Create("/hbase", []byte("root"), false); err != nil {
		t.Fatal(err)
	}
	if err := sess.Create("/hbase/meta", []byte("server-1"), false); err != nil {
		t.Fatal(err)
	}
	data, err := sess.Get("/hbase/meta")
	if err != nil || string(data) != "server-1" {
		t.Fatalf("Get = %q, %v", data, err)
	}
	if err := sess.Set("/hbase/meta", []byte("server-2")); err != nil {
		t.Fatal(err)
	}
	data, _ = sess.Get("/hbase/meta")
	if string(data) != "server-2" {
		t.Errorf("after Set: %q", data)
	}
	if err := sess.Delete("/hbase/meta"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Get("/hbase/meta"); !errors.Is(err, ErrNoNode) {
		t.Errorf("Get deleted node: %v", err)
	}
}

func TestCreateErrors(t *testing.T) {
	s := NewServer()
	sess := s.NewSession()
	defer sess.Close()

	if err := sess.Create("/a/b", nil, false); !errors.Is(err, ErrNoNode) {
		t.Errorf("missing parent: %v", err)
	}
	if err := sess.Create("no-slash", nil, false); !errors.Is(err, ErrBadPath) {
		t.Errorf("bad path: %v", err)
	}
	if err := sess.Create("/a", nil, false); err != nil {
		t.Fatal(err)
	}
	if err := sess.Create("/a", nil, false); !errors.Is(err, ErrNodeExists) {
		t.Errorf("duplicate create: %v", err)
	}
}

func TestDeleteNonEmpty(t *testing.T) {
	s := NewServer()
	sess := s.NewSession()
	defer sess.Close()
	mustCreate(t, sess, "/a", false)
	mustCreate(t, sess, "/a/b", false)
	if err := sess.Delete("/a"); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("Delete non-empty: %v", err)
	}
}

func TestChildrenSorted(t *testing.T) {
	s := NewServer()
	sess := s.NewSession()
	defer sess.Close()
	mustCreate(t, sess, "/rs", false)
	mustCreate(t, sess, "/rs/zebra", false)
	mustCreate(t, sess, "/rs/alpha", false)
	kids, err := sess.Children("/rs")
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 2 || kids[0] != "alpha" || kids[1] != "zebra" {
		t.Errorf("Children = %v", kids)
	}
}

func TestEphemeralRemovedOnClose(t *testing.T) {
	s := NewServer()
	owner := s.NewSession()
	mustCreate(t, owner, "/live", false)
	if err := owner.Create("/live/rs1", []byte("x"), true); err != nil {
		t.Fatal(err)
	}
	other := s.NewSession()
	defer other.Close()
	if ok, _ := other.Exists("/live/rs1"); !ok {
		t.Fatal("ephemeral should exist while session lives")
	}
	owner.Close()
	if ok, _ := other.Exists("/live/rs1"); ok {
		t.Error("ephemeral must vanish when owner closes")
	}
	if ok, _ := other.Exists("/live"); !ok {
		t.Error("persistent parent must survive")
	}
}

func TestClosedSessionRejectsOps(t *testing.T) {
	s := NewServer()
	sess := s.NewSession()
	sess.Close()
	sess.Close() // idempotent
	if err := sess.Create("/x", nil, false); !errors.Is(err, ErrClosed) {
		t.Errorf("Create on closed: %v", err)
	}
	if _, err := sess.Get("/x"); !errors.Is(err, ErrClosed) {
		t.Errorf("Get on closed: %v", err)
	}
}

func TestWatchFiresOnce(t *testing.T) {
	s := NewServer()
	sess := s.NewSession()
	defer sess.Close()
	ch, err := sess.Watch("/node")
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, sess, "/node", false)
	select {
	case ev := <-ch:
		if ev.Type != EventCreated || ev.Path != "/node" {
			t.Errorf("event = %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("watch did not fire")
	}
	// Channel is closed after the one-shot event.
	if _, open := <-ch; open {
		t.Error("watch channel should be closed after firing")
	}
}

func TestWatchOnDelete(t *testing.T) {
	s := NewServer()
	sess := s.NewSession()
	defer sess.Close()
	mustCreate(t, sess, "/gone", false)
	ch, _ := sess.Watch("/gone")
	if err := sess.Delete("/gone"); err != nil {
		t.Fatal(err)
	}
	ev := <-ch
	if ev.Type != EventDeleted {
		t.Errorf("event = %+v", ev)
	}
}

func TestLeaderElection(t *testing.T) {
	s := NewServer()
	m1 := s.NewSession()
	m2 := s.NewSession()
	defer m2.Close()

	ok, err := m1.ElectLeader("/master", "m1")
	if err != nil || !ok {
		t.Fatalf("m1 election: %v %v", ok, err)
	}
	ok, err = m2.ElectLeader("/master", "m2")
	if err != nil || ok {
		t.Fatalf("m2 should lose election: %v %v", ok, err)
	}
	if id, _ := m2.Leader("/master"); id != "m1" {
		t.Errorf("leader = %q", id)
	}
	// Failover: when m1 dies its ephemeral node vanishes and m2 can win.
	m1.Close()
	if id, _ := m2.Leader("/master"); id != "" {
		t.Errorf("leader after close = %q", id)
	}
	ok, err = m2.ElectLeader("/master", "m2")
	if err != nil || !ok {
		t.Fatalf("m2 failover election: %v %v", ok, err)
	}
}

func TestSetIfCompareAndSwap(t *testing.T) {
	s := NewServer()
	sess := s.NewSession()
	defer sess.Close()
	mustCreate(t, sess, "/epoch", false)

	data, ver, err := sess.GetVersion("/epoch")
	if err != nil || len(data) != 0 || ver != 0 {
		t.Fatalf("GetVersion = %q, %d, %v", data, ver, err)
	}
	if err := sess.SetIf("/epoch", []byte("1"), ver); err != nil {
		t.Fatal(err)
	}
	// A second writer holding the stale version must lose the race.
	if err := sess.SetIf("/epoch", []byte("99"), ver); !errors.Is(err, ErrBadVersion) {
		t.Errorf("stale SetIf: %v", err)
	}
	data, ver, _ = sess.GetVersion("/epoch")
	if string(data) != "1" || ver != 1 {
		t.Errorf("after CAS: %q at version %d", data, ver)
	}
	// Plain Set also bumps the version, invalidating outstanding CAS holders.
	if err := sess.Set("/epoch", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := sess.SetIf("/epoch", []byte("3"), ver); !errors.Is(err, ErrBadVersion) {
		t.Errorf("SetIf after Set: %v", err)
	}
	if _, _, err := sess.GetVersion("/missing"); !errors.Is(err, ErrNoNode) {
		t.Errorf("GetVersion missing: %v", err)
	}
	if err := sess.SetIf("/missing", nil, 0); !errors.Is(err, ErrNoNode) {
		t.Errorf("SetIf missing: %v", err)
	}
}

func TestExpireSessionRemovesEphemeralsAndRejectsOps(t *testing.T) {
	s := NewServer()
	zombie := s.NewSession()
	other := s.NewSession()
	defer other.Close()

	ok, err := zombie.ElectLeader("/master", "m1")
	if err != nil || !ok {
		t.Fatalf("election: %v %v", ok, err)
	}
	// A watcher sees the expiry exactly like a crash: EventDeleted.
	ch, _ := other.Watch("/master")
	s.ExpireSession(zombie)
	select {
	case ev := <-ch:
		if ev.Type != EventDeleted {
			t.Errorf("event = %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("expiry did not fire the watch")
	}
	if id, _ := other.Leader("/master"); id != "" {
		t.Errorf("leader after expiry = %q", id)
	}
	// The zombie finds out on its next call — every op fails ErrExpired.
	if _, err := zombie.Get("/master"); !errors.Is(err, ErrExpired) {
		t.Errorf("Get on expired: %v", err)
	}
	if ok, err := zombie.ElectLeader("/master", "m1"); ok || !errors.Is(err, ErrExpired) {
		t.Errorf("ElectLeader on expired: %v %v", ok, err)
	}
	// Expiring twice, or expiring a foreign/closed session, is a no-op.
	s.ExpireSession(zombie)
	s.ExpireSession(nil)
	NewServer().ExpireSession(other)
	if _, err := other.Get("/"); err != nil {
		t.Errorf("other session must stay usable: %v", err)
	}
}

func mustCreate(t *testing.T, sess *Session, path string, ephemeral bool) {
	t.Helper()
	if err := sess.Create(path, nil, ephemeral); err != nil {
		t.Fatalf("Create(%s): %v", path, err)
	}
}

func TestSessionIDsUniqueInOpenOrder(t *testing.T) {
	s := NewServer()
	a := s.NewSession()
	a.Close()
	b, c := s.NewSession(), s.NewSession()
	defer b.Close()
	defer c.Close()
	// A closed session's ID is not reused: clients name themselves by it.
	if !(a.ID() < b.ID() && b.ID() < c.ID()) {
		t.Fatalf("session IDs %d, %d, %d: want strictly increasing in open order", a.ID(), b.ID(), c.ID())
	}
}
