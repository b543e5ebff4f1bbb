package fed

// Static-file peer discovery. A peers file is JSON:
//
//	{
//	  "epoch": "4f2a…",                       // the split's epoch (fedserve fills it in)
//	  "shards": [
//	    ["http://10.0.0.1:8081"],             // shard 0 endpoints (replicas)
//	    ["http://10.0.0.2:8081", "http://10.0.0.3:8081"],
//	    ["http://10.0.0.4:8081"]
//	  ]
//	}
//
// The outer index is the shard number; the inner list holds equivalent
// replicas of that shard, tried in rotation (and raced by hedging).
// cmd/fedserve re-reads the file on SIGHUP and swaps it into the
// client without dropping in-flight requests; endpoints that survive a
// reload keep their circuit-breaker state.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"os/signal"
	"syscall"
)

// Peers is the parsed peers file: the epoch that pins the client (shard
// s must stamp serve.ShardVersion(Epoch, s)), one endpoint list per shard.
type Peers struct {
	Epoch  string     `json:"epoch,omitempty"`
	Shards [][]string `json:"shards"`
}

// LoadPeers reads and validates a peers file: at least one shard, at
// least one endpoint per shard, every endpoint an absolute http:// URL
// (shard servers speak plain HTTP; there is no TLS to dial).
func LoadPeers(path string) (*Peers, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p Peers
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("fed: parsing peers file %s: %w", path, err)
	}
	if err := p.validate(); err != nil {
		return nil, fmt.Errorf("fed: peers file %s: %w", path, err)
	}
	return &p, nil
}

func (p *Peers) validate() error {
	if len(p.Shards) == 0 {
		return fmt.Errorf("no shards listed")
	}
	for s, eps := range p.Shards {
		if len(eps) == 0 {
			return fmt.Errorf("shard %d has no endpoints", s)
		}
		for _, ep := range eps {
			u, err := url.Parse(ep)
			if err != nil {
				return fmt.Errorf("shard %d endpoint %q: %v", s, ep, err)
			}
			if u.Scheme != "http" || u.Host == "" {
				return fmt.Errorf("shard %d endpoint %q is not an absolute http:// URL", s, ep)
			}
		}
	}
	return nil
}

// WatchReload re-reads the peers file and swaps it into the client each
// time the process receives SIGHUP, until ctx is cancelled. Reload
// failures (unreadable file, shard-count or epoch mismatch) are
// reported through onErr (which may be nil) and leave the active peer
// set untouched.
func (c *Client) WatchReload(ctx context.Context, path string, onErr func(error)) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGHUP)
	go func() {
		defer signal.Stop(sig)
		for {
			select {
			case <-ctx.Done():
				return
			case <-sig:
				p, err := LoadPeers(path)
				if err == nil {
					err = c.Reload(p)
				}
				if err != nil && onErr != nil {
					onErr(err)
				}
			}
		}
	}()
}
