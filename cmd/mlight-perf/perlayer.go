package main

// perLayer lists every per-layer metric, in the order BENCHMARK.json lists
// them. A traced run prints all of them on every workload; a metric whose
// seam the workload's stack does not have reads zero.
var perLayer = []struct{ name, unit string }{
	// core: the index engine, plus the Counting/Resilient decorators
	// core.New builds inside itself and its closures run by the store.
	{"core.self_us_per_insert", "us"},
	{"core.self_us_per_lookup", "us"},
	{"core.self_us_per_range", "us"},
	{"core.apply_fn_us_per_insert", "us"},
	{"core.self_share", "ratio"},
	{"core.dht_calls_per_insert", "count"},
	{"core.dht_calls_per_lookup", "count"},
	{"core.dht_calls_per_range", "count"},
	{"core.dht_call_us", "us"},
	{"core.batch_width_mean", "count"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.cache_stale_per_kop", "count"},
	{"core.splits_per_kinsert", "count"},
	{"core.merges_per_kdelete", "count"},
	// dht: the in-process stores and the decorator stack.
	{"dht.self_share", "ratio"},
	{"dht.store_us_per_get", "us"},
	{"dht.store_us_per_apply", "us"},
	{"dht.store_us_per_putbatch", "us"},
	{"dht.local_apply_ns", "ns"},
	{"dht.sharded_apply_ns", "ns"},
	{"dht.decorator_overhead_ns", "ns"},
	{"dht.retries_per_kop", "count"},
	{"dht.breaker_trips", "count"},
	// wal: the journal.
	{"wal.append_us", "us"},
	{"wal.log_bytes_per_record", "B"},
	{"wal.disk_bytes_per_user_byte", "ratio"},
	// wire: the bucket codec and ByteDHT.
	{"wire.self_us_per_insert", "us"},
	{"wire.self_us_per_lookup", "us"},
	{"wire.self_us_per_range", "us"},
	{"wire.self_share", "ratio"},
	{"wire.marshal_bucket_ns", "ns"},
	{"wire.unmarshal_bucket_ns", "ns"},
	{"wire.marshal_bucket100_ns", "ns"},
	{"wire.unmarshal_bucket100_ns", "ns"},
	{"wire.bytes_per_record", "B"},
	// chord, and the two overlays that have no workload.
	{"chord.self_us_per_insert", "us"},
	{"chord.self_us_per_lookup", "us"},
	{"chord.self_us_per_range", "us"},
	{"chord.self_share", "ratio"},
	{"chord.hops_mean", "count"},
	{"chord.hops_p95", "count"},
	{"pastry.get_us", "us"},
	{"pastry.hops_mean", "count"},
	{"kademlia.get_us", "us"},
	{"kademlia.hops_mean", "count"},
	// simnet.
	{"simnet.self_share", "ratio"},
	{"simnet.calls_per_op", "count"},
	{"simnet.call_ns", "ns"},
	// transport: framed TCP and the reflection codec.
	{"transport.self_share", "ratio"},
	{"transport.rpcs_per_insert", "count"},
	{"transport.rpcs_per_lookup", "count"},
	{"transport.rpcs_per_range", "count"},
	{"transport.route_rpcs_per_op", "count"},
	{"transport.ping_rpcs_per_op", "count"},
	{"transport.cas_rpcs_per_insert", "count"},
	{"transport.replicate_rpcs_per_insert", "count"},
	{"transport.rpc_p50_us", "us"},
	{"transport.rpc_p95_us", "us"},
	{"transport.bytes_per_insert", "B"},
	{"transport.bytes_per_lookup", "B"},
	{"transport.bytes_per_range", "B"},
	{"transport.echo_p50_us", "us"},
	{"transport.marshal_ns", "ns"},
	{"transport.unmarshal_ns", "ns"},
	// process: the whole process, daemons included.
	{"process.allocs_per_op", "count"},
	{"process.alloc_bytes_per_op", "B"},
	{"process.gc_pause_total_ms", "ms"},
	{"process.cpu_s_per_kop", "s"},
	{"process.peak_rss_mib", "MiB"},
	// client: latency tails of the untraced reference pass (informational).
	{"client.insert_p95_us", "us"},
	{"client.insert_p99_us", "us"},
	{"client.insert_samples", "count"},
	{"client.insert_max_ms", "ms"},
	{"client.lookup_p95_us", "us"},
	{"client.lookup_p99_us", "us"},
	{"client.lookup_samples", "count"},
	{"client.range_p95_us", "us"},
	{"client.range_p99_us", "us"},
	{"client.range_samples", "count"},
	// trace: the tracing itself.
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
	{"trace.self_sum_frac", "ratio"},
}

// newPerLayerSet returns every per-layer metric at zero.
func newPerLayerSet() metricSet {
	out := metricSet{}
	for _, m := range perLayer {
		out.set(m.name, m.unit, 0)
	}
	return out
}
