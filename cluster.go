package hquorum

import (
	"hquorum/internal/cluster"
	"hquorum/internal/dmutex"
	"hquorum/internal/epoch"
	"hquorum/internal/rkv"
)

// Simulation substrate (see internal/cluster).
type (
	// Network is the deterministic discrete-event cluster simulation.
	Network = cluster.Network
	// NodeID identifies a simulated node.
	NodeID = cluster.NodeID
	// Env is the node-side interface to the cluster.
	Env = cluster.Env
	// Handler is the protocol logic a node runs.
	Handler = cluster.Handler
	// NetworkOption configures a Network.
	NetworkOption = cluster.Option
)

// Network construction options.
var (
	// WithSeed sets the simulation's random seed.
	WithSeed = cluster.WithSeed
	// WithLatency sets the message-delay range.
	WithLatency = cluster.WithLatency
	// WithDropRate sets the message-loss probability.
	WithDropRate = cluster.WithDropRate
	// WithFIFO toggles per-link FIFO ordering.
	WithFIFO = cluster.WithFIFO
)

// NewNetwork creates a simulated cluster.
func NewNetwork(opts ...NetworkOption) *Network { return cluster.New(opts...) }

// Distributed mutual exclusion (see internal/dmutex).
type (
	// MutexNode is a Maekawa-style mutual-exclusion participant.
	MutexNode = dmutex.Node
	// MutexConfig parameterizes a MutexNode.
	MutexConfig = dmutex.Config
	// MutexWorkload schedules a node's critical-section attempts.
	MutexWorkload = dmutex.Workload
)

// NewMutexNode builds a mutual-exclusion node over any quorum System.
func NewMutexNode(id NodeID, cfg MutexConfig) (*MutexNode, error) {
	return dmutex.NewNode(id, cfg)
}

// Replicated register (see internal/rkv).
type (
	// Replica is a replicated-register node.
	Replica = rkv.Node
	// ReplicaConfig parameterizes a Replica.
	ReplicaConfig = rkv.Config
	// RegisterOp is one client operation on the register.
	RegisterOp = rkv.Op
	// RegisterResult reports a completed operation.
	RegisterResult = rkv.Result
)

// Register operation kinds.
const (
	OpRead       = rkv.OpRead
	OpWrite      = rkv.OpWrite
	OpBlindWrite = rkv.OpBlindWrite
)

// NewReplica builds a replicated-register node.
func NewReplica(id NodeID, cfg ReplicaConfig) (*Replica, error) {
	return rkv.NewNode(id, cfg)
}

// Epoch-versioned cluster configuration (see internal/epoch). The root
// package only delegates: internal/epoch is the single source of truth
// for config values, validation, wire encoding and quorum construction.
type (
	// ClusterParams is one configuration a cluster can run: a quorum
	// flavor, its shape, and the member set as global node IDs.
	ClusterParams = epoch.Params
	// ClusterConfig is an epoch-versioned configuration; during a
	// reconfiguration it is "joint" and quorums span old and new.
	ClusterConfig = epoch.Config
	// EpochStore is a node's home for the current ClusterConfig.
	EpochStore = epoch.Store
	// QuorumFlavor names a construction the live protocols can run.
	QuorumFlavor = epoch.Flavor
)

// The live-path quorum flavors.
const (
	FlavorMajority = epoch.FlavorMajority
	FlavorHGrid    = epoch.FlavorHGrid
	FlavorHTGrid   = epoch.FlavorHTGrid
	FlavorHTriang  = epoch.FlavorHTriang
	FlavorHMaj     = epoch.FlavorHMaj
)

// ErrStaleEpoch reports an operation rejected for being issued under an
// older configuration epoch than the receiver's.
var ErrStaleEpoch = epoch.ErrStaleEpoch

// Config helpers, delegated to internal/epoch.
var (
	// ParseFlavor parses a flavor name (majority|hgrid|htgrid|htriang|hmaj).
	ParseFlavor = epoch.ParseFlavor
	// ParseMembers parses a member spec like "0-8" or "0-3,6,9-11" over
	// an ID space: ParseMembers(spec, space) rejects members >= space.
	ParseMembers = epoch.ParseMembers
	// MemberRange returns the member list [lo, hi).
	MemberRange = epoch.MemberRange
)

// NewEpochStore builds a node's epoch store over a global ID space,
// starting from the initial configuration at epoch 1. Every replica
// needs one (ReplicaConfig.Epochs — it is the replica's quorum source);
// the lock has none (a MutexConfig draws from its quorum System).
func NewEpochStore(space int, initial ClusterParams) (*EpochStore, error) {
	return epoch.NewStore(space, initial)
}

// ReconfigToken returns the timer token that makes the receiving replica
// coordinate a live reconfiguration to target.
func ReconfigToken(target ClusterParams) any { return rkv.ReconfigToken(target) }
