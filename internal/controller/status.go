package controller

import (
	"encoding/json"
	"sort"
	"time"

	"typhoon/internal/coordinator"
	"typhoon/internal/paths"
)

// ControllerStatus is one controller's registration as seen by the
// coordinator.
type ControllerStatus struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
	// Live reports whether the registration heartbeat is current.
	Live bool `json:"live"`
	// AgeMillis is the time since the last heartbeat.
	AgeMillis int64 `json:"ageMillis"`
}

// MasterStatus is one switch's mastership lease.
type MasterStatus struct {
	Host  string `json:"host"`
	Owner string `json:"owner"`
	Epoch uint64 `json:"epoch"`
	// Expired reports a lapsed lease awaiting takeover.
	Expired bool `json:"expired"`
}

// ControlPlaneInfo is the full control-plane view: registrations plus
// per-switch mastership, served at /api/v1/controlplane and by
// `typhoon-ctl controlplane status`.
type ControlPlaneInfo struct {
	Controllers []ControllerStatus `json:"controllers"`
	Masters     []MasterStatus     `json:"masters"`
}

// ReadControlPlaneInfo assembles the control-plane status from coordinator
// state. It needs no controller handle, so CLI tools can call it against a
// bare coordinator connection; an empty result means the cluster runs a
// standalone controller.
func ReadControlPlaneInfo(kv coordinator.KV) (ControlPlaneInfo, error) {
	now := time.Now()
	var info ControlPlaneInfo
	ids, err := kv.Children(paths.Controllers)
	if err != nil && err != coordinator.ErrNotFound {
		return info, err
	}
	sort.Strings(ids)
	for _, id := range ids {
		raw, _, err := kv.Get(paths.ControllerReg(id))
		if err != nil {
			continue
		}
		var r registration
		if json.Unmarshal(raw, &r) != nil {
			continue
		}
		info.Controllers = append(info.Controllers, ControllerStatus{
			ID:        id,
			Addr:      r.Addr,
			Live:      !r.expired(now),
			AgeMillis: (now.UnixNano() - r.RenewedAtNanos) / int64(time.Millisecond),
		})
	}
	hosts, err := kv.Children(paths.Masters)
	if err != nil && err != coordinator.ErrNotFound {
		return info, err
	}
	sort.Strings(hosts)
	for _, host := range hosts {
		l, err := coordinator.ReadLease(kv, paths.SwitchMaster(host))
		if err != nil {
			continue
		}
		info.Masters = append(info.Masters, MasterStatus{
			Host:    host,
			Owner:   l.Owner,
			Epoch:   l.Epoch,
			Expired: l.Expired(now),
		})
	}
	return info, nil
}
