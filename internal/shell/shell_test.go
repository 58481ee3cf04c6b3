package shell

import (
	"strings"
	"testing"
)

func newShell(t *testing.T) (*Shell, *strings.Builder) {
	t.Helper()
	var out strings.Builder
	sh, err := New([]string{"n1", "n2", "n3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sh.Close)
	return sh, &out
}

func run(t *testing.T, sh *Shell, line string) {
	t.Helper()
	if err := sh.Exec(line); err != nil {
		t.Fatalf("%q: %v", line, err)
	}
}

func TestCreatePutGet(t *testing.T) {
	sh, out := newShell(t)
	run(t, sh, "create store active 2")
	run(t, sh, "put store answer 42")
	run(t, sh, "get store answer")
	run(t, sh, "keys store")
	run(t, sh, "del store answer")
	run(t, sh, "get store answer") // not found path
	s := out.String()
	for _, want := range []string{"created store", "42 [", "[answer]", "(not found)"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestStatusAndGroups(t *testing.T) {
	sh, out := newShell(t)
	run(t, sh, "create w warm 3")
	run(t, sh, "groups")
	run(t, sh, "status w")
	run(t, sh, "nodes")
	run(t, sh, "stats n1")
	s := out.String()
	for _, want := range []string{"WARM_PASSIVE", "primary", "backup", "executions=", "suppressed="} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestCrashAndSurvive(t *testing.T) {
	sh, out := newShell(t)
	run(t, sh, "create kv active 3")
	run(t, sh, "put kv k v")
	run(t, sh, "crash n1")
	run(t, sh, "get kv k")
	if !strings.Contains(out.String(), "v [") {
		t.Errorf("get after crash failed:\n%s", out.String())
	}
	run(t, sh, "nodes")
	if !strings.Contains(out.String(), "crashed") {
		t.Error("nodes did not report the crash")
	}
}

func TestPartitionHeal(t *testing.T) {
	sh, out := newShell(t)
	run(t, sh, "create kv active 3")
	run(t, sh, "partition n1,n2|n3")
	run(t, sh, "heal")
	s := out.String()
	if !strings.Contains(s, "partitioned into") || !strings.Contains(s, "network healed") {
		t.Errorf("partition/heal output:\n%s", s)
	}
}

func TestErrors(t *testing.T) {
	sh, _ := newShell(t)
	for _, bad := range []string{
		"bogus",
		"create",
		"create x nope 2",
		"create x active zero",
		"get missing k",
		"crash ghost",
		"partition onlyone",
		"status nope",
		"stats ghost",
		"put kv k", // kv not created yet + wrong arity handled first
	} {
		if err := sh.Exec(bad); err == nil {
			t.Errorf("Exec(%q) succeeded, want error", bad)
		}
	}
	// Duplicate create.
	run(t, sh, "create dup active 1")
	if err := sh.Exec("create dup active 1"); err == nil {
		t.Error("duplicate create must fail")
	}
}

func TestRunLoop(t *testing.T) {
	sh, out := newShell(t)
	script := strings.NewReader("help\ncreate s active 1\nput s a b\nget s a\nquit\n")
	sh.Run(script)
	if !strings.Contains(out.String(), "b [") {
		t.Errorf("scripted session failed:\n%s", out.String())
	}
}
