// Package shell implements the interactive FT-domain console behind
// cmd/ftsh: create replicated objects, invoke them, and inject faults from
// a command line — a hands-on harness for exploring the infrastructure.
package shell

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/ftcorba"
	"repro/internal/orb"
	"repro/internal/replication"
	"repro/internal/totem"
)

// kvType is the repository id of the built-in replicated key/value store
// the shell creates objects from.
const kvType = "IDL:ftsh/KV:1.0"

// kvServant is a deterministic, checkpointable string map.
type kvServant struct {
	mu   sync.Mutex
	data map[string]string
}

func newKVServant() orb.Servant { return &kvServant{data: make(map[string]string)} }

func (s *kvServant) RepoID() string { return kvType }

func (s *kvServant) Dispatch(inv *orb.Invocation) ([]cdr.Value, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch inv.Operation {
	case "put":
		s.data[inv.Args[0].AsString()] = inv.Args[1].AsString()
		return []cdr.Value{cdr.ULong(uint32(len(s.data)))}, nil
	case "get":
		v, ok := s.data[inv.Args[0].AsString()]
		if !ok {
			return nil, &orb.UserException{Name: "IDL:ftsh/NotFound:1.0"}
		}
		return []cdr.Value{cdr.Str(v)}, nil
	case "del":
		delete(s.data, inv.Args[0].AsString())
		return []cdr.Value{cdr.ULong(uint32(len(s.data)))}, nil
	case "keys":
		keys := make([]string, 0, len(s.data))
		for k := range s.data {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		vals := make([]cdr.Value, len(keys))
		for i, k := range keys {
			vals[i] = cdr.Str(k)
		}
		return []cdr.Value{cdr.Seq(vals...)}, nil
	}
	return nil, &orb.UserException{Name: "IDL:ftsh/BadOp:1.0"}
}

func (s *kvServant) GetState() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteULong(uint32(len(keys)))
	for _, k := range keys {
		e.WriteString(k)
		e.WriteString(s.data[k])
	}
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out, nil
}

func (s *kvServant) SetState(b []byte) error {
	d := cdr.NewDecoder(b, cdr.BigEndian)
	n, err := d.ReadULong()
	if err != nil {
		return err
	}
	data := make(map[string]string, n)
	for i := uint32(0); i < n; i++ {
		k, err := d.ReadString()
		if err != nil {
			return err
		}
		v, err := d.ReadString()
		if err != nil {
			return err
		}
		data[k] = v
	}
	s.mu.Lock()
	s.data = data
	s.mu.Unlock()
	return nil
}

// Shell is one console session bound to a domain.
type Shell struct {
	domain *core.Domain
	out    io.Writer
	groups map[string]uint64 // name -> gid
}

// New creates a shell over a freshly built domain with the given nodes.
func New(nodes []string, out io.Writer) (*Shell, error) {
	d, err := core.NewDomain(core.Options{Nodes: nodes, Heartbeat: 5 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	if err := d.WaitReady(10 * time.Second); err != nil {
		d.Stop()
		return nil, err
	}
	if err := d.RegisterFactory(kvType, newKVServant); err != nil {
		d.Stop()
		return nil, err
	}
	return &Shell{domain: d, out: out, groups: make(map[string]uint64)}, nil
}

// Close stops the underlying domain.
func (s *Shell) Close() { s.domain.Stop() }

// Run reads commands until EOF or "quit".
func (s *Shell) Run(in io.Reader) {
	scanner := bufio.NewScanner(in)
	for {
		fmt.Fprint(s.out, "ftsh> ")
		if !scanner.Scan() {
			fmt.Fprintln(s.out)
			return
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			return
		}
		if err := s.Exec(line); err != nil {
			fmt.Fprintln(s.out, "error:", err)
		}
	}
}

// Exec runs one command line.
func (s *Shell) Exec(line string) error {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "help":
		s.help()
		return nil
	case "nodes":
		return s.cmdNodes()
	case "create":
		return s.cmdCreate(args)
	case "groups":
		return s.cmdGroups()
	case "status":
		return s.cmdStatus(args)
	case "put", "get", "del", "keys":
		return s.cmdKV(cmd, args)
	case "crash":
		return s.cmdCrash(args)
	case "partition":
		return s.cmdPartition(args)
	case "heal":
		s.domain.Heal()
		fmt.Fprintln(s.out, "network healed")
		return nil
	case "stats":
		return s.cmdStats(args)
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
}

func (s *Shell) help() {
	fmt.Fprint(s.out, `commands:
  nodes                                list domain nodes
  create <name> <style> <replicas>    create a replicated KV object
                                       style: active | voting | warm | cold
  groups                              list created objects
  status <name>                       replica status of an object
  put <name> <key> <value>            write through the group
  get <name> <key>                    read through the group
  del <name> <key>                    delete a key
  keys <name>                         list keys
  crash <node>                        fail-stop a node
  partition <a,b|c,d>                 split the network into components
  heal                                remove all partitions
  stats <node>                        replication engine counters
  quit                                exit
`)
}

func (s *Shell) cmdNodes() error {
	for _, n := range s.domain.Nodes() {
		state := "up"
		if s.domain.Node(n) == nil {
			state = "crashed"
		}
		fmt.Fprintf(s.out, "  %-12s %s\n", n, state)
	}
	return nil
}

func parseStyle(name string) (replication.Style, error) {
	switch name {
	case "active":
		return replication.Active, nil
	case "voting":
		return replication.ActiveWithVoting, nil
	case "warm":
		return replication.WarmPassive, nil
	case "cold":
		return replication.ColdPassive, nil
	case "leader":
		return replication.LeaderFollower, nil
	default:
		return 0, fmt.Errorf("unknown style %q (active|voting|warm|cold|leader)", name)
	}
}

func (s *Shell) cmdCreate(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("usage: create <name> <style> <replicas>")
	}
	name := args[0]
	if _, exists := s.groups[name]; exists {
		return fmt.Errorf("object %q already exists", name)
	}
	style, err := parseStyle(args[1])
	if err != nil {
		return err
	}
	replicas, err := strconv.Atoi(args[2])
	if err != nil || replicas < 1 {
		return fmt.Errorf("bad replica count %q", args[2])
	}
	props := &ftcorba.Properties{
		ReplicationStyle:      style,
		InitialNumberReplicas: replicas,
	}
	if style.IsLeaderFollower() {
		// Declared reads are served replica-locally under the leader
		// lease instead of entering the ordered stream.
		props.ReadOnlyOps = []string{"get", "keys"}
	}
	_, gid, err := s.domain.Create(name, kvType, props)
	if err != nil {
		return err
	}
	if err := s.domain.WaitGroupReady(gid, replicas, 10*time.Second); err != nil {
		return err
	}
	s.groups[name] = gid
	members, _ := s.domain.RM.Members(gid)
	fmt.Fprintf(s.out, "created %s (group %d, %s) on %v\n", name, gid, style, members)
	return nil
}

func (s *Shell) cmdGroups() error {
	names := make([]string, 0, len(s.groups))
	for n := range s.groups {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		gid := s.groups[n]
		members, err := s.domain.RM.Members(gid)
		if err != nil {
			continue
		}
		p, _ := s.domain.RM.PropertiesOf(gid)
		fmt.Fprintf(s.out, "  %-12s group %-3d %-14s members %v\n", n, gid, p.ReplicationStyle, members)
	}
	return nil
}

func (s *Shell) lookup(name string) (uint64, error) {
	gid, ok := s.groups[name]
	if !ok {
		return 0, fmt.Errorf("no object %q (see groups)", name)
	}
	return gid, nil
}

// clientNode picks a live node to issue invocations from.
func (s *Shell) clientNode() (string, error) {
	for _, n := range s.domain.Nodes() {
		if s.domain.Node(n) != nil {
			return n, nil
		}
	}
	return "", fmt.Errorf("no live nodes")
}

func (s *Shell) cmdStatus(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: status <name>")
	}
	gid, err := s.lookup(args[0])
	if err != nil {
		return err
	}
	members, err := s.domain.RM.Members(gid)
	if err != nil {
		return err
	}
	for _, m := range members {
		node := s.domain.Node(m)
		if node == nil {
			fmt.Fprintf(s.out, "  %-12s crashed\n", m)
			continue
		}
		st, ok := node.Engine.GroupStatus(gid)
		if !ok {
			fmt.Fprintf(s.out, "  %-12s not hosting\n", m)
			continue
		}
		role := "backup"
		if st.Primary == m {
			role = "primary"
		}
		flags := ""
		if st.Secondary {
			flags += " [secondary-component]"
		}
		if st.Syncing {
			flags += " [syncing]"
		}
		fmt.Fprintf(s.out, "  %-12s %-8s view %v%s\n", m, role, st.Members, flags)
	}
	return nil
}

func (s *Shell) cmdKV(op string, args []string) error {
	want := map[string]int{"put": 3, "get": 2, "del": 2, "keys": 1}[op]
	if len(args) != want {
		return fmt.Errorf("usage: %s <name>%s", op, map[string]string{
			"put": " <key> <value>", "get": " <key>", "del": " <key>", "keys": "",
		}[op])
	}
	gid, err := s.lookup(args[0])
	if err != nil {
		return err
	}
	from, err := s.clientNode()
	if err != nil {
		return err
	}
	proxy, err := s.domain.Proxy(from, gid)
	if err != nil {
		return err
	}
	start := time.Now()
	var out []cdr.Value
	switch op {
	case "put":
		out, err = proxy.Invoke("put", cdr.Str(args[1]), cdr.Str(args[2]))
	case "get":
		out, err = proxy.Invoke("get", cdr.Str(args[1]))
	case "del":
		out, err = proxy.Invoke("del", cdr.Str(args[1]))
	case "keys":
		out, err = proxy.Invoke("keys")
	}
	elapsed := time.Since(start).Round(time.Microsecond)
	if err != nil {
		var uexc *orb.UserException
		if ok := asUserExc(err, &uexc); ok && uexc.Name == "IDL:ftsh/NotFound:1.0" {
			fmt.Fprintf(s.out, "(not found) [%v]\n", elapsed)
			return nil
		}
		return err
	}
	switch op {
	case "put", "del":
		fmt.Fprintf(s.out, "ok, %d key(s) [%v]\n", out[0].AsULong(), elapsed)
	case "get":
		fmt.Fprintf(s.out, "%s [%v]\n", out[0].AsString(), elapsed)
	case "keys":
		seq := out[0].AsSeq()
		names := make([]string, len(seq))
		for i, v := range seq {
			names[i] = v.AsString()
		}
		fmt.Fprintf(s.out, "%v [%v]\n", names, elapsed)
	}
	return nil
}

func asUserExc(err error, target **orb.UserException) bool {
	u, ok := err.(*orb.UserException)
	if ok {
		*target = u
	}
	return ok
}

func (s *Shell) cmdCrash(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: crash <node>")
	}
	if s.domain.Node(args[0]) == nil {
		return fmt.Errorf("node %q is not up", args[0])
	}
	s.domain.CrashNode(args[0])
	fmt.Fprintf(s.out, "%s crashed\n", args[0])
	return nil
}

func (s *Shell) cmdPartition(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: partition a,b|c,d")
	}
	var groups [][]string
	for _, comp := range strings.Split(args[0], "|") {
		var nodes []string
		for _, n := range strings.Split(comp, ",") {
			n = strings.TrimSpace(n)
			if n != "" {
				nodes = append(nodes, n)
			}
		}
		if len(nodes) > 0 {
			groups = append(groups, nodes)
		}
	}
	if len(groups) < 2 {
		return fmt.Errorf("need at least two components, e.g. partition n1,n2|n3")
	}
	s.domain.Partition(groups...)
	fmt.Fprintf(s.out, "partitioned into %v\n", groups)
	return nil
}

func (s *Shell) cmdStats(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: stats <node>")
	}
	node := s.domain.Node(args[0])
	if node == nil {
		return fmt.Errorf("node %q is not up", args[0])
	}
	st := node.Engine.Stats()
	fmt.Fprintf(s.out, "  executions=%d dupInvocations=%d suppressedReplies=%d dupReplies=%d\n",
		st.Executions, st.DupInvocations, st.SuppressedReplies, st.DupReplies)
	fmt.Fprintf(s.out, "  replays=%d fulfillments=%d checkpoints=%d stateTransfers=%d retries=%d\n",
		st.Replays, st.Fulfillments, st.Checkpoints, st.StateTransfers, st.Retries)
	ts := totem.AggregateStats(node.Rings)
	fmt.Fprintf(s.out, "  totem: delivered=%d sent=%d suppressed=%d retransmits=%d batches=%d formations=%d\n",
		ts.Delivered, ts.Sent, ts.Suppressed, ts.Retransmit, ts.Batches, ts.Formations)
	return nil
}
