package main

import (
	"io"
	"net/http"

	"iqpaths/internal/gossip"
)

// daemonGossip serves the sink's admission replication table over HTTP —
// the live transport for the delta/anti-entropy protocol that
// internal/gossip simulates. Peers repair each other with one round
// trip:
//
//	GET  /gossip/digest           → this daemon's digest (binary)
//	POST /gossip/digest  <digest> → delta records the peer is missing
//	POST /gossip/push    <delta>  → merge pushed records, {"applied": n}
//
// where n counts the pushed records that changed the table. A peer
// daemon polls GET /gossip/digest, diffs against its own table,
// POSTs its digest to fetch what it lacks, and pushes fresh local
// originations with /gossip/push. All payloads use the fuzz-hardened
// internal/gossip codec.
type daemonGossip struct {
	adm *daemonAdmission
}

// maxGossipBody bounds a digest or delta upload; the codec's own
// length checks handle anything structurally oversized within it.
const maxGossipBody = 1 << 20

func (g *daemonGossip) register(mux *http.ServeMux) {
	mux.HandleFunc("/gossip/digest", g.handleDigest)
	mux.HandleFunc("/gossip/push", g.handlePush)
}

const octetStream = "application/octet-stream"

func (g *daemonGossip) handleDigest(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", octetStream)
		w.Write(gossip.EncodeDigest(g.adm.adm.Digest()))
	case http.MethodPost:
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxGossipBody))
		if err != nil {
			jsonError(w, http.StatusRequestEntityTooLarge, "digest body too large")
			return
		}
		d, err := gossip.ParseDigest(body)
		if err != nil {
			jsonError(w, http.StatusBadRequest, "malformed digest: "+err.Error())
			return
		}
		w.Header().Set("Content-Type", octetStream)
		w.Write(gossip.EncodeDelta(g.adm.adm.DeltaSince(d)))
	default:
		w.Header().Set("Allow", "GET, POST")
		jsonError(w, http.StatusMethodNotAllowed, "method "+r.Method+" not allowed; use GET or POST")
	}
}

func (g *daemonGossip) handlePush(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxGossipBody))
	if err != nil {
		jsonError(w, http.StatusRequestEntityTooLarge, "delta body too large")
		return
	}
	recs, err := gossip.ParseDelta(body)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "malformed delta: "+err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"applied": g.adm.adm.Ingest(recs)})
}
