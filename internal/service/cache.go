package service

// Content-addressed result cache: completed synthesis payloads keyed
// by canonical request hash (canonical.go). A hit returns the stored
// response payload — including the exact designio.Save bytes — without
// touching the engine, so repeated identical requests cost one map
// lookup. Eviction is least-recently-used (internal/lru), same policy
// as the Step-1 ring cache: load generators and dashboards re-request a
// small working set while one-off explorations stream through.

// cached is one completed result as stored in the cache. design holds
// the exact designio.Save bytes, so cache hits stay byte-identical to
// library output.
type cached struct {
	key     string
	jobID   string // job that produced the entry, reported on hits
	summary *Summary
	design  []byte
}

// cachePut stores c in the memory tier, replacing any entry under its
// key and evicting from the LRU back at the cap.
func (s *Server) cachePut(c *cached) {
	_, evicted, size := s.cache.Put(c.key, c, true)
	mCacheEvicts.Add(int64(evicted))
	mCacheSize.Set(int64(size))
}
