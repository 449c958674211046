package main

// layerMetrics derives the per-layer metrics from the spans a traced run
// recorded. Counts and summed seconds are per round; *_mean_s and other
// means are per call. Every metric is present on every workload; a layer
// the workload does not drive reads 0.
func layerMetrics(tr *tracer, t *totals) map[string]metric {
	sp := tr.byName()
	rounds := float64(max(t.rounds(), 1))
	cnt := func(name string) float64 { return float64(len(sp[name])) }
	dur := func(name string) float64 {
		s := 0.0
		for _, x := range sp[name] {
			s += x.seconds()
		}
		return s
	}
	sumN := func(name string) float64 {
		s := 0.0
		for _, x := range sp[name] {
			s += float64(x.N)
		}
		return s
	}
	meanDur := func(name string) float64 {
		if len(sp[name]) == 0 {
			return 0
		}
		return dur(name) / cnt(name)
	}
	perRound := func(v float64) float64 { return v / rounds }

	execKinds := []string{"exec.deviation", "exec.crash", "exec.stealthy", "exec.group"}
	units, execS := 0.0, 0.0
	for _, k := range execKinds {
		units += cnt(k)
		execS += dur(k)
	}
	idle := 0.0
	if units > 0 {
		idle = 1 - execS/(sum(t.walls)*float64(max(t.slots, 1)))
	}
	workerIdle := 0.0
	if cnt("dist.lease") > 0 {
		workerIdle = idle
	}
	keysPerLease := 0.0
	if n := cnt("dist.lease"); n > 0 {
		keysPerLease = sumN("dist.lease") / n
	}

	m := map[string]metric{
		"campaign.units":          {perRound(units), "count"},
		"campaign.exec_s":         {perRound(execS), "s"},
		"campaign.pool_idle_frac": {idle, "ratio"},
		"campaign.appends":        {perRound(cnt("campaign.append")), "count"},
		"campaign.append_s":       {perRound(dur("campaign.append")), "s"},
		"campaign.aggregate_s":    {perRound(dur("campaign.aggregate")), "s"},

		"exec.deviation_mean_s": {meanDur("exec.deviation"), "s"},
		"exec.crash_mean_s":     {meanDur("exec.crash"), "s"},
		"exec.stealthy_mean_s":  {meanDur("exec.stealthy"), "s"},
		"exec.group_mean_s":     {meanDur("exec.group"), "s"},

		"serve.submit_s":      {meanDur("serve.POST /v1/cpvs/{id}/assess"), "s"},
		"serve.queue_wait_s":  {meanDur("serve.queue_wait"), "s"},
		"serve.run_s":         {meanDur("serve.run"), "s"},
		"serve.result_s":      {meanDur("serve.GET /v1/results/{id}"), "s"},
		"serve.cache_hits":    {perRound(cnt("serve.cache_hit")), "count"},
		"serve.dedups":        {perRound(cnt("serve.dedup")), "count"},
		"serve.hit_latency_s": {meanDur("serve.hit_latency"), "s"},
		"serve.rejected":      {perRound(cnt("serve.rejected")), "count"},

		"dist.lease_wait_s":     {meanDur("dist.lease_wait"), "s"},
		"dist.leases":           {perRound(cnt("dist.lease")), "count"},
		"dist.keys_per_lease":   {keysPerLease, "count"},
		"dist.heartbeats":       {perRound(cnt("dist.heartbeat")), "count"},
		"dist.record_posts":     {perRound(cnt("dist.records")), "count"},
		"dist.record_bytes":     {perRound(sumN("dist.records")), "bytes"},
		"dist.records_s":        {perRound(dur("dist.records")), "s"},
		"dist.merge_s":          {perRound(dur("dist.merge")), "s"},
		"dist.worker_idle_frac": {workerIdle, "ratio"},
		"dist.steals":           {perRound(sumN("dist.steals")), "count"},
		"dist.finalize_s":       {meanDur("dist.finalize"), "s"},

		"core.profile_s": {meanDur("core.profile"), "s"},
		"core.analyze_s": {meanDur("core.analyze"), "s"},
	}
	return m
}
