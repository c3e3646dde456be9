// The serving ledger of the traced run.
//
// Each layer is timed alone on the same 32-record batches, innermost
// first and outermost last, interleaved batch by batch so drift in the
// machine's speed hits every layer alike:
//
//   body    core::gather_body_scores
//   fuse    core::fuse_gathered_batch
//   engine  InferenceEngine::predict_batch, memo off
//   router  in-process ShardRouter::predict_batch over one engine
//   remote  remote-only ShardRouter::predict_batch over one ShardServer
//           on a unix socket (client frames of 32, memo off)
//   wire    rpc encode/decode of the request and response frames alone
//   submit  InferenceEngine::submit x32 on a warm memo (not in the sum)
//
// One shard per tier keeps every layer at the same batch shape: a
// 32-record batch split over two shards would wait for the flush timer.
// A layer's cost is its median minus the median of the layer below, so
// body + fuse + engine overhead + router + hop is the traced remote
// median; the same remote call timed without a span gives the untraced
// end-to-end figure, and the difference is reported as the residual.
#include "bench.h"
#include "common/error.h"
#include "serve/router.h"
#include "serve/rpc/server.h"
#include "serve/rpc/wire.h"
#include "trace.h"

namespace perfbench {

namespace {

constexpr std::size_t kBatch = 32;

void require_same(const std::vector<serve::Prediction>& got,
                  const std::vector<serve::Prediction>& expected, const char* layer) {
  MUFFIN_REQUIRE(got.size() == expected.size(), std::string(layer) + ": row count");
  for (std::size_t i = 0; i < got.size(); ++i) {
    MUFFIN_REQUIRE(got[i].scores == expected[i].scores,
                   std::string(layer) + ": scores differ from the engine's");
  }
}

}  // namespace

LedgerMemo serving_ledger(std::shared_ptr<const core::FusedModel> model,
                          std::span<const data::Record> records, double budget_seconds,
                          Result& result) {
  MUFFIN_REQUIRE(records.size() >= kBatch, "ledger needs at least one batch");
  const std::size_t num_classes = model->num_classes();
  const std::size_t body_size = model->body().size();

  serve::EngineConfig memo_off;
  memo_off.result_cache_capacity = 0;
  serve::InferenceEngine engine(model, memo_off);
  serve::InferenceEngine warm_engine(model);
  serve::RouterConfig local_config;
  local_config.shards = 1;
  local_config.engine = memo_off;
  serve::ShardRouter local_router(model, local_config);

  std::unique_ptr<serve::rpc::ShardServer> server;
  std::unique_ptr<serve::ShardRouter> remote_router;
  {
    ScopedSpan span("setup.server_start");
    serve::rpc::ShardServerConfig server_config;
    server_config.engine = memo_off;
    server = std::make_unique<serve::rpc::ShardServer>(
        model, socket_endpoint("ledger"), server_config);
    serve::RouterConfig remote_config;
    remote_config.shards = 0;
    remote_config.remote_endpoints = {server->address()};
    remote_config.remote.connections = 1;
    remote_config.remote.max_batch = kBatch;
    remote_router = std::make_unique<serve::ShardRouter>(nullptr, remote_config);
    (void)remote_router->predict_batch(records.subspan(0, kBatch));  // connect
  }

  const std::size_t batches = records.size() / kBatch;
  const auto batch_at = [&](std::size_t i) {
    return records.subspan((i % batches) * kBatch, kBatch);
  };
  // Warm the memo of the submit engine on every batch the loop will use.
  for (std::size_t i = 0; i < batches; ++i) (void)warm_engine.predict_batch(batch_at(i));

  Tracer& tracer = Tracer::instance();
  std::size_t rows = 0;
  std::size_t head_rows = 0;
  double req_bytes = 0.0;
  double resp_bytes = 0.0;
  std::vector<double> untraced_remote;
  std::size_t iteration = 0;
  time_calls(budget_seconds, 64, [&]() {
    const std::span<const data::Record> batch = batch_at(iteration++);
    tensor::Matrix gathered;
    {
      ScopedSpan span("ledger.body");
      gathered = core::gather_body_scores(model->body(), num_classes, batch);
    }
    {
      ScopedSpan span("ledger.fuse");
      head_rows += core::fuse_gathered_batch(gathered, model->head(), body_size,
                                             num_classes,
                                             model->head_only_on_disagreement())
                       .head_rows;
    }
    rows += batch.size();
    std::vector<serve::Prediction> expected;
    {
      ScopedSpan span("ledger.engine");
      expected = engine.predict_batch(batch);
    }
    std::vector<serve::Prediction> got;
    {
      ScopedSpan span("ledger.router");
      got = local_router.predict_batch(batch);
    }
    require_same(got, expected, "in-process router");
    {
      ScopedSpan span("ledger.remote");
      got = remote_router->predict_batch(batch);
    }
    require_same(got, expected, "remote router");
    tracer.set_enabled(false);
    untraced_remote.push_back(
        time_calls(0.0, 1, [&]() { got = remote_router->predict_batch(batch); })[0]);
    tracer.set_enabled(true);
    require_same(got, expected, "remote router");

    std::vector<std::uint8_t> frame;
    {
      ScopedSpan span("ledger.wire.enc_req");
      frame = serve::rpc::encode_score_request(iteration, batch);
    }
    req_bytes += static_cast<double>(frame.size());
    const std::span<const std::uint8_t> request_payload =
        std::span<const std::uint8_t>(frame).subspan(serve::rpc::kHeaderBytes);
    std::vector<data::Record> decoded;
    {
      ScopedSpan span("ledger.wire.dec_req");
      decoded = serve::rpc::decode_score_request(request_payload);
    }
    MUFFIN_REQUIRE(decoded.size() == batch.size(), "wire: request rows");
    {
      ScopedSpan span("ledger.wire.enc_resp");
      frame = serve::rpc::encode_score_response(iteration, expected);
    }
    resp_bytes += static_cast<double>(frame.size());
    const std::span<const std::uint8_t> response_payload =
        std::span<const std::uint8_t>(frame).subspan(serve::rpc::kHeaderBytes);
    {
      ScopedSpan span("ledger.wire.dec_resp");
      got = serve::rpc::decode_score_response(response_payload);
    }
    require_same(got, expected, "wire codec");

    std::vector<std::future<serve::Prediction>> futures;
    {
      ScopedSpan span("ledger.submit");
      for (const data::Record& record : batch) futures.push_back(warm_engine.submit(record));
      for (std::future<serve::Prediction>& future : futures) (void)future.get();
    }
  });
  remote_router->shutdown();
  server->stop();

  const double per_rec = 1.0 / static_cast<double>(kBatch);
  const double body = span_median_us("ledger.body") * per_rec;
  const double fuse = span_median_us("ledger.fuse") * per_rec;
  const double engine_us = span_median_us("ledger.engine") * per_rec;
  const double router_us = span_median_us("ledger.router") * per_rec;
  const double remote_us = span_median_us("ledger.remote") * per_rec;
  const double e2e = summarize(untraced_remote).median * 1e6 * per_rec;
  const double n = static_cast<double>(iteration) * static_cast<double>(kBatch);

  result.layer("body.us_per_rec", body, "us");
  result.layer("fuse.us_per_rec", fuse, "us");
  result.layer("fuse.head_row_ratio",
                static_cast<double>(head_rows) / static_cast<double>(rows), "ratio");
  result.layer("engine.batch_overhead_us_per_rec", engine_us - body - fuse, "us");
  result.layer("engine.submit_us_per_rec", span_median_us("ledger.submit") * per_rec,
                "us");
  result.layer("router.us_per_rec", router_us - engine_us, "us");
  result.layer("wire.enc_req_us_per_rec", span_median_us("ledger.wire.enc_req") * per_rec,
                "us");
  result.layer("wire.dec_req_us_per_rec", span_median_us("ledger.wire.dec_req") * per_rec,
                "us");
  result.layer("wire.enc_resp_us_per_rec",
                span_median_us("ledger.wire.enc_resp") * per_rec, "us");
  result.layer("wire.dec_resp_us_per_rec",
                span_median_us("ledger.wire.dec_resp") * per_rec, "us");
  result.layer("wire.req_bytes_per_rec", req_bytes / n, "bytes");
  result.layer("wire.resp_bytes_per_rec", resp_bytes / n, "bytes");
  result.layer("rpc.hop_us_per_rec", remote_us - router_us, "us");
  result.layer("ledger.e2e_us_per_rec", e2e, "us");
  // body + fuse + engine overhead + router + hop telescopes to remote_us.
  result.layer("ledger.residual_us_per_rec", e2e - remote_us, "us");
  result.info("ledger.batches", static_cast<double>(iteration));
  return {warm_engine.counters(), warm_engine.memo_bytes()};
}

}  // namespace perfbench
