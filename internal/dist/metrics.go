package dist

import "github.com/ares-cps/ares/internal/metrics"

// coordMetrics are the coordinator's instruments. The ares_serve_* family
// covers the job lifecycle both daemon modes share (admission, dedup,
// cache, completion); the ares_dist_* family covers the worker fleet
// (registrations, leases, merges, steals).
type coordMetrics struct {
	accepted, deduped, completed, failed, rejected *metrics.Counter
	cacheHits, cacheMisses                         *metrics.Counter
	queueDepth, inflight                           *metrics.Gauge
	jobSeconds                                     *metrics.Histogram

	workersRegistered *metrics.Gauge
	leasesActive      *metrics.Gauge
	leasesGranted     *metrics.Counter
	leasesExpired     *metrics.Counter
	recordsMerged     *metrics.Counter
	steals            *metrics.Counter
}

func newCoordMetrics(r *metrics.Registry) coordMetrics {
	return coordMetrics{
		accepted:    r.Counter("ares_serve_jobs_accepted_total", "campaigns accepted into the queue (new or retried)"),
		deduped:     r.Counter("ares_serve_jobs_deduped_total", "submissions collapsed onto an identical in-flight campaign"),
		completed:   r.Counter("ares_serve_jobs_completed_total", "campaigns finished successfully"),
		failed:      r.Counter("ares_serve_jobs_failed_total", "campaigns finished with an error or failed cells"),
		rejected:    r.Counter("ares_serve_jobs_rejected_total", "submissions rejected because the queue was full"),
		cacheHits:   r.Counter("ares_serve_cache_hits_total", "requests served from a finished result"),
		cacheMisses: r.Counter("ares_serve_cache_misses_total", "requests that missed the result cache"),
		queueDepth:  r.Gauge("ares_serve_queue_depth", "campaigns waiting for their first lease"),
		inflight:    r.Gauge("ares_serve_inflight_workers", "campaigns leased and not yet finalized"),
		jobSeconds:  r.Histogram("ares_serve_job_seconds", "campaign wall time from first lease to finalize, in seconds", nil),

		workersRegistered: r.Gauge("ares_dist_workers_registered", "workers currently registered with the coordinator"),
		leasesActive:      r.Gauge("ares_dist_leases_active", "job leases currently held by workers"),
		leasesGranted:     r.Counter("ares_dist_leases_granted_total", "job leases granted to workers"),
		leasesExpired:     r.Counter("ares_dist_leases_expired_total", "leases reclaimed after missing heartbeats"),
		recordsMerged:     r.Counter("ares_dist_records_merged_total", "worker records merged into campaign stores"),
		steals:            r.Counter("ares_dist_steal_events_total", "jobs from expired leases re-leased to another worker"),
	}
}
