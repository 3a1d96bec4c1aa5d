// Package lonviz is the public facade of the light-field remote
// visualization system: a Go reproduction of "Remote Visualization by
// Browsing Image Based Databases with Logistical Networking" (SC'03).
//
// The implementation lives in internal packages (one per subsystem — see
// README.md); this package re-exports the types and constructors a
// downstream application needs, grouped by role:
//
//   - Building databases: Params, PaperParams, ScaledParams, NewRaycastGenerator,
//     NewProceduralGenerator, BuildDatabase, NewDirStore.
//   - Browsing locally: NewRenderer, MapProvider, ViewerCamera via Params.
//   - The LoN fabric: NewDepot/NewDepotServer (IBP), NewLBone, NewDVS.
//   - Streaming: NewServerAgent, NewClientAgent, NewViewer.
//   - Synthetic data: NegHip, DefaultNegHipTF.
//
// The examples/ directory shows each of these in a runnable program; start
// with examples/quickstart.
package lonviz

import (
	"context"

	"lonviz/internal/agent"
	"lonviz/internal/dvs"
	"lonviz/internal/exnode"
	"lonviz/internal/geom"
	"lonviz/internal/ibp"
	"lonviz/internal/lbone"
	"lonviz/internal/lightfield"
	"lonviz/internal/lors"
	"lonviz/internal/multiview"
	"lonviz/internal/netsim"
	"lonviz/internal/render"
	"lonviz/internal/volume"
)

// --- geometry and volumes ---

// Vec3 is a 3-component vector (see internal/geom).
type Vec3 = geom.Vec3

// Spherical holds angular spherical coordinates (theta from +Z, phi from +X).
type Spherical = geom.Spherical

// Volume is a regular scalar grid with trilinear sampling.
type Volume = volume.Volume

// TransferFunction maps scalar values to color and opacity.
type TransferFunction = volume.TransferFunction

// NegHip synthesizes the paper's test dataset stand-in: the electrical
// potential of a negative high-energy protein, n^3 voxels.
func NegHip(n int) (*Volume, error) { return volume.NegHip(n) }

// DefaultNegHipTF is the potential-field transfer function preset used in
// the experiments.
func DefaultNegHipTF() *TransferFunction { return volume.DefaultNegHipTF() }

// --- the light field core ---

// Params describes a spherical light field database's geometry.
type Params = lightfield.Params

// ViewSetID identifies one view set block.
type ViewSetID = lightfield.ViewSetID

// ViewSet is an l x l block of sample views, the unit of transfer.
type ViewSet = lightfield.ViewSet

// Generator produces view sets (ray-casting or procedural).
type Generator = lightfield.Generator

// Renderer reconstructs novel views from view sets by 4-D lookup.
type Renderer = lightfield.Renderer

// MapProvider serves view sets from memory to a Renderer.
type MapProvider = lightfield.MapProvider

// DirStore is the on-disk database layout shared by lfgen and lfserve.
type DirStore = lightfield.DirStore

// Image is a square RGB image (one sample view or one rendered frame).
type Image = render.Image

// PaperParams returns the paper's configuration at the given sample-view
// resolution: 2.5 degree lattice, l=6, 288 view sets.
func PaperParams(res int) Params { return lightfield.PaperParams(res) }

// ScaledParams returns a reduced lattice for fast experimentation.
func ScaledParams(stepDeg float64, l, res int) Params {
	return lightfield.ScaledParams(stepDeg, l, res)
}

// NewRaycastGenerator renders sample views from a volume with the parallel
// ray caster.
func NewRaycastGenerator(p Params, vol *Volume, tf *TransferFunction) (Generator, error) {
	return lightfield.NewRaycastGenerator(p, vol, tf)
}

// NewProceduralGenerator synthesizes realistic view sets quickly (for
// transfer experiments and tests).
func NewProceduralGenerator(p Params, seed int64) (Generator, error) {
	return lightfield.NewProceduralGenerator(p, seed)
}

// BuildDatabase generates every view set with a parallel worker pool.
func BuildDatabase(ctx Context, gen Generator, workers int) (*lightfield.BuildResult, error) {
	return lightfield.BuildDatabase(ctx, gen, workers)
}

// NewRenderer builds the client-side lookup renderer over any provider.
func NewRenderer(p Params, prov lightfield.Provider) (*Renderer, error) {
	return lightfield.NewRenderer(p, prov)
}

// NewDirStore opens (creating if needed) an on-disk database directory.
func NewDirStore(dir string, p Params) (*DirStore, error) {
	return lightfield.NewDirStore(dir, p)
}

// EncodeViewSet marshals and compresses a view set for transfer.
func EncodeViewSet(vs *ViewSet, p Params, level int) ([]byte, error) {
	return lightfield.EncodeViewSet(vs, p, level)
}

// DecodeViewSet reverses EncodeViewSet, validating integrity.
func DecodeViewSet(frame []byte, p Params) (*ViewSet, error) {
	return lightfield.DecodeViewSet(frame, p)
}

// --- the Logistical Networking fabric ---

// Depot is an IBP storage depot (best-effort, time-limited allocations).
type Depot = ibp.Depot

// DepotConfig bounds a depot's capacity, lease policy and backing store.
type DepotConfig = ibp.DepotConfig

// DepotServer serves a depot over the IBP wire protocol.
type DepotServer = ibp.Server

// DepotClient performs IBP operations against one depot.
type DepotClient = ibp.Client

// ExNode aggregates IBP capabilities into a logical object (XML-encoded).
type ExNode = exnode.ExNode

// LBoneServer is the depot directory.
type LBoneServer = lbone.Server

// LBoneClient queries and registers with the directory.
type LBoneClient = lbone.Client

// DVSServer is one level of the Dictionary of View Sets hierarchy.
type DVSServer = dvs.Server

// DVSClient queries a DVS server.
type DVSClient = dvs.Client

// NewDepot creates an IBP depot.
func NewDepot(cfg DepotConfig) (*Depot, error) { return ibp.NewDepot(cfg) }

// NewDepotServer wraps a depot for network service.
func NewDepotServer(d *Depot) *DepotServer { return ibp.NewServer(d) }

// NewLBone creates an empty depot directory.
func NewLBone() *LBoneServer { return lbone.NewServer() }

// NewDVS creates a DVS level; parent is the next level up ("" for root).
func NewDVS(parent string) *DVSServer { return dvs.NewServer(parent) }

// Upload stripes an object across depots and returns its exNode.
func Upload(ctx Context, name string, data []byte, opts lors.UploadOptions) (*ExNode, error) {
	return lors.Upload(ctx, name, data, opts)
}

// Download reassembles an exNode's payload with parallel reads and replica
// failover.
func Download(ctx Context, ex *ExNode, opts lors.DownloadOptions) ([]byte, lors.DownloadStats, error) {
	return lors.Download(ctx, ex, opts)
}

// --- streaming agents ---

// ServerAgent renders/publishes view sets on the data's side of the WAN.
type ServerAgent = agent.ServerAgent

// ServerAgentConfig wires a server agent to generator, depots and DVS.
type ServerAgentConfig = agent.ServerAgentConfig

// ClientAgent caches, prefetches and prestages on the user's side.
type ClientAgent = agent.ClientAgent

// ClientAgentConfig wires a client agent to the fabric.
type ClientAgentConfig = agent.ClientAgentConfig

// Viewer is the client process: view set requests, decompression, lookup
// rendering.
type Viewer = agent.Viewer

// AccessRecord reports one view set access as the user experienced it.
type AccessRecord = agent.AccessRecord

// NewServerAgent validates cfg and starts the render scheduler.
func NewServerAgent(cfg ServerAgentConfig) (*ServerAgent, error) { return agent.NewServerAgent(cfg) }

// NewClientAgent validates cfg and builds the agent (call StartPrestaging
// for the aggressive mode).
func NewClientAgent(cfg ClientAgentConfig) (*ClientAgent, error) { return agent.NewClientAgent(cfg) }

// NewViewer builds the client over any view set source (a *ClientAgent or
// an agent.RemoteSource).
func NewViewer(p Params, src agent.ViewSetSource) (*Viewer, error) { return agent.NewViewer(p, src) }

// --- network simulation ---

// LinkProfile describes a simulated link (latency, bandwidth, sharing).
type LinkProfile = netsim.LinkProfile

// Dialer dials with per-destination link profiles.
type Dialer = netsim.Dialer

// NewDialer returns a dialer whose default profile is fallback.
func NewDialer(fallback LinkProfile) *Dialer { return netsim.NewDialer(fallback) }

// --- extensions ---

// Track is a sequence of light field stations for interior navigation.
type Track = multiview.Track

// NewTrack builds stations along a path (paper section 3.2).
func NewTrack(base string, template Params, path []Vec3, radiusScale float64) (*Track, error) {
	return multiview.NewTrack(base, template, path, radiusScale)
}

// Context aliases context.Context to keep facade signatures tidy.
type Context = context.Context
