// Package cluster is the horizontal scale-out layer of the solver daemon:
// a stateless HTTP router (cmd/cspr) in front of a replica set of cspd
// nodes.
//
// The routing key is the paper's thesis turned into a shard key. Identical
// structure means identical classification and identical cached results, so
// cspio.CanonicalHash — FNV-1a of the canonical encoding, which identifies
// exactly the instances each cspd node's keyed cache digest (cspio.Digest)
// identifies — is the ideal consistent-hash key: routing by it means a
// repeated instance always lands on the node whose cache already holds its
// result, and the cluster-wide hit rate equals the single-node hit rate
// regardless of replica count. Random or round-robin routing would dilute
// the hit rate by 1/N. The ring key is unkeyed and stable across processes;
// since cspr caches nothing, a collision on it only puts two instances on
// one replica.
//
// The pieces:
//
//   - Ring is a consistent-hash ring with virtual nodes: replicas own many
//     pseudo-randomly scattered points, so load spreads evenly and a dead
//     replica's keyspace redistributes across the survivors instead of
//     dogpiling its ring successor.
//   - Health polls each replica's /healthz and /metrics?format=json on an
//     interval, tracking liveness and load (queue depth + in-flight solves).
//     The routing path consults it to skip known-dead replicas and to
//     offload away from a saturated primary *before* the replica's own 429
//     path triggers; proxy outcomes feed back immediately (a connection
//     failure marks the replica down without waiting for the next sweep).
//   - Router is the HTTP surface: POST /solve proxies one instance with
//     retry-once failover to the next live ring position on connection
//     failure or 5xx; POST /solve/batch fans many instances out with
//     bounded intra-batch parallelism (fixed workers draining a jobs
//     channel); GET /healthz,
//     /metrics and /replicas expose the router's own state.
//
// When every reachable replica sheds, the router propagates 429 with the
// largest Retry-After it saw — the replicas derive that header from their
// observed queue waits, so the cluster's backpressure is honest end to end.
//
// Everything is stdlib; the cluster is testable fully in-process with
// httptest replica sets.
package cluster

import "csdb/internal/obs"

// Cluster-router metrics, in the PR-8 labeled-vector discipline: label
// values come only from the literal switches below, so series cardinality is
// closed. cspr.route.outcome classifies every proxied request; a separate
// per-replica latency histogram is labeled by ring index (replicaLabel), not
// by address, so the series space stays bounded and stable across restarts.
var (
	obsRequests      = obs.NewCounter("cspr.route.requests")
	obsBatches       = obs.NewCounter("cspr.batch.requests")
	obsBatchItems    = obs.NewHistogram("cspr.batch.items")
	obsRouteOutcome  = obs.NewCounterVec("cspr.route.outcome", "outcome")
	obsReplicaHealth = obs.NewCounterVec("cspr.replica.health", "state")
	obsReplicaLive   = obs.NewGauge("cspr.replica.live")
	obsReplicaReqNs  = obs.NewHistogramVec("cspr.replica.request_ns", "replica")
)

// Routing outcomes of one proxied request (the closed label set of
// cspr.route.outcome):
//
//	primary    served by the instance's consistent-hash home replica
//	offload    primary was overloaded; served by the least-loaded live node
//	failover   first attempt failed (conn error / 5xx / 429); a retry on
//	           the next candidate served it
//	saturated  every attempted replica shed; 429 propagated to the caller
//	error      no attempted replica produced a response; 502
//	down       no live replica to attempt; 503
//	reject     rejected locally (bad method, unreadable body, parse error)
const (
	outcomePrimary   = "primary"
	outcomeOffload   = "offload"
	outcomeFailover  = "failover"
	outcomeSaturated = "saturated"
	outcomeError     = "error"
	outcomeDown      = "down"
	outcomeReject    = "reject"
)

// replicaLabel maps a ring index onto the closed replica label set. Every
// case returns its own literal (rather than formatting the input) so the
// obslabel analyzer can prove the set is closed; fleets beyond eight
// replicas share the "other" series rather than growing the space.
func replicaLabel(i int) string {
	switch i {
	case 0:
		return "0"
	case 1:
		return "1"
	case 2:
		return "2"
	case 3:
		return "3"
	case 4:
		return "4"
	case 5:
		return "5"
	case 6:
		return "6"
	case 7:
		return "7"
	}
	return "other"
}
