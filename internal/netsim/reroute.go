package netsim

// reroute.go is failure re-route: recompute shortest paths over the
// surviving fabric and express the difference against each device's
// live netcl_fwd table as one transactional WriteBatch per device.
// This is the control-plane half of a failover timeline — the
// PR 9 headroom item ("routes are installed once; nothing re-routes
// around a dead device") closed. Unlike InstallRoutes, which programs
// empty tables, RerouteBatches diffs: entries already pointing the
// right way are untouched, changed next hops become Modify ops,
// destinations that vanished behind a dead device become Delete ops —
// so applying a batch mid-run disturbs only the paths that actually
// moved, under PR 6's all-or-nothing generation publish.
//
// Post-failure paths are single-path (lowest surviving port): a
// failure collapses ECMP spreading on the affected destinations by
// design, trading load balance for the simplest consistent update.

import (
	"fmt"
	"sort"

	"netcl/internal/bmv2"
	"netcl/internal/p4"
)

// RerouteOptions configures RerouteBatches.
type RerouteOptions struct {
	// Dead lists devices to route around: they contribute no adjacency,
	// get no batch, and destinations keyed by their id are deleted —
	// unless redirected.
	Dead []*Device
	// Redirect maps a logical destination id (a dead device's compiled
	// identity) to the standby device that now answers for it: routes
	// for the key are rebuilt toward the standby. The standby must be
	// compiled with the logical id for toMe interception to work; its
	// own physical id keeps its ordinary routes.
	Redirect map[uint16]*Device
	// HostRoutes recomputes per-host entries too (match the original
	// InstallRoutes call). Hosts attached to dead devices are deleted
	// everywhere.
	HostRoutes bool
}

// DeviceBatch pairs a device with the WriteBatch that repairs its
// forwarding state.
type DeviceBatch struct {
	Dev   *Device
	Batch *bmv2.WriteBatch
}

// RerouteBatches computes per-device forwarding repairs for the fabric
// after the given failures. Links with an administratively-down
// direction (SetPortDown/SetLinkDown) and dead devices are excluded
// from the path graph. The result lists only devices whose tables
// change, devices ascending by id, each batch's ops in ascending
// destination-key order — fully deterministic, so a timeline applying
// the batches at fixed virtual times is partition-count invariant.
// Batches are returned, not applied: schedule each through its
// device's At hook so the write lands in the owning partition.
func (t *Topo) RerouteBatches(opts RerouteOptions) ([]DeviceBatch, error) {
	n := t.n
	dead := map[*Device]bool{}
	for _, d := range opts.Dead {
		dead[d] = true
	}

	// Alive fabric devices in ascending-id order (the path graph is the
	// topo's own devices, matching InstallRoutes).
	var alive []*Device
	for _, d := range t.Devices() {
		if !dead[d] {
			alive = append(alive, d)
		}
	}
	sort.Slice(alive, func(i, j int) bool { return alive[i].ID < alive[j].ID })

	// Surviving adjacency (ports ascending per device), skipping dead
	// peers and links with a down direction.
	adj := map[int32][]int32{}
	for _, d := range alive {
		for p := range d.ports {
			li := d.ports[p]
			if li == 0 {
				continue
			}
			l := n.links.at(li - 1)
			if l.down[0] || l.down[1] {
				continue
			}
			peer := l.peerOf(d, p)
			if !peer.isDevice() {
				continue
			}
			pd := n.devs[peer.deviceIdx()]
			if dead[pd] {
				continue
			}
			adj[d.idx] = append(adj[d.idx], pd.idx)
		}
	}
	distTo := func(root *Device) map[int32]int {
		dist := map[int32]int{root.idx: 0}
		queue := []int32{root.idx}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range adj[cur] {
				if _, ok := dist[nb]; !ok {
					dist[nb] = dist[cur] + 1
					queue = append(queue, nb)
				}
			}
		}
		return dist
	}
	// nexthop returns d's lowest surviving port one hop closer to the
	// BFS root, or -1 when unreachable.
	nexthop := func(d *Device, dist map[int32]int) int {
		dd, ok := dist[d.idx]
		if !ok {
			return -1
		}
		for p := range d.ports {
			li := d.ports[p]
			if li == 0 {
				continue
			}
			l := n.links.at(li - 1)
			if l.down[0] || l.down[1] {
				continue
			}
			peer := l.peerOf(d, p)
			if !peer.isDevice() {
				continue
			}
			pd := n.devs[peer.deviceIdx()]
			if dead[pd] {
				continue
			}
			if nd, ok := dist[pd.idx]; ok && nd == dd-1 {
				return p
			}
		}
		return -1
	}

	// Destination set: (key, BFS root, root's host port or -1). Alive
	// device ids route to themselves; redirected logical ids route to
	// their standby; host ids (opt-in) route to the attach device and
	// out its host port there.
	type dest struct {
		key      uint16
		root     *Device
		hostPort int
	}
	var dests []dest
	deleted := map[uint16]bool{} // keys to delete wherever present
	for _, d := range alive {
		dests = append(dests, dest{key: d.ID, root: d, hostPort: -1})
	}
	for _, d := range opts.Dead {
		if _, ok := opts.Redirect[d.ID]; !ok {
			deleted[d.ID] = true
		}
	}
	rkeys := make([]int, 0, len(opts.Redirect))
	for k := range opts.Redirect {
		rkeys = append(rkeys, int(k))
	}
	sort.Ints(rkeys)
	for _, k := range rkeys {
		target := opts.Redirect[uint16(k)]
		if dead[target] {
			return nil, fmt.Errorf("netsim: redirect %d targets dead device %d", k, target.ID)
		}
		dests = append(dests, dest{key: uint16(k), root: target, hostPort: -1})
	}
	if opts.HostRoutes {
		type hostAt struct {
			id   uint16
			dev  *Device
			port int
		}
		var hosts []hostAt
		for _, d := range t.Devices() {
			for p := range d.ports {
				li := d.ports[p]
				if li == 0 {
					continue
				}
				peer := n.links.at(li-1).peerOf(d, p)
				if peer.isDevice() {
					continue
				}
				id := n.hs.at(peer.node).ID
				if dead[d] {
					deleted[id] = true
					continue
				}
				hosts = append(hosts, hostAt{id: id, dev: d, port: p})
			}
		}
		sort.Slice(hosts, func(i, j int) bool { return hosts[i].id < hosts[j].id })
		for _, h := range hosts {
			dests = append(dests, dest{key: h.id, root: h.dev, hostPort: h.port})
		}
	}
	sort.Slice(dests, func(i, j int) bool { return dests[i].key < dests[j].key })

	// One BFS per distinct root, shared across devices.
	distCache := map[*Device]map[int32]int{}
	distOf := func(root *Device) map[int32]int {
		d, ok := distCache[root]
		if !ok {
			d = distTo(root)
			distCache[root] = d
		}
		return d
	}

	// Diff each alive device's desired (key → port) against its live
	// table.
	var out []DeviceBatch
	for _, d := range alive {
		current := map[uint16]*p4.Entry{}
		for _, e := range d.SW.Entries("netcl_fwd") {
			if len(e.Keys) == 1 {
				current[uint16(e.Keys[0].Value)] = e
			}
		}
		b := bmv2.NewWriteBatch()
		for _, ds := range dests {
			if ds.key == d.ID {
				continue
			}
			var port int
			if ds.root == d {
				if ds.hostPort < 0 {
					// A redirected logical id terminates here via the
					// compiled toMe check; the fwd table is never
					// consulted, so leave any stale entry alone.
					continue
				}
				port = ds.hostPort
			} else {
				port = nexthop(d, distOf(ds.root))
				if port < 0 {
					return nil, fmt.Errorf("netsim: no surviving route from device %d to key %d", d.ID, ds.key)
				}
			}
			e := &p4.Entry{
				Keys:   []p4.KeyValue{{Value: uint64(ds.key), PrefixLen: -1}},
				Action: &p4.ActionCall{Name: "set_port", Args: []uint64{uint64(port)}},
			}
			if cur, ok := current[ds.key]; ok {
				if cur.Action != nil && cur.Action.Name == "set_port" &&
					len(cur.Action.Args) == 1 && cur.Action.Args[0] == uint64(port) {
					continue // already pointing the right way
				}
				b.Modify("netcl_fwd", e)
			} else {
				b.Insert("netcl_fwd", e)
			}
		}
		dkeys := make([]int, 0, len(deleted))
		for k := range deleted {
			dkeys = append(dkeys, int(k))
		}
		sort.Ints(dkeys)
		for _, k := range dkeys {
			if _, ok := current[uint16(k)]; ok {
				b.Delete("netcl_fwd", uint64(k))
			}
		}
		if b.Len() > 0 {
			out = append(out, DeviceBatch{Dev: d, Batch: b})
		}
	}
	return out, nil
}
