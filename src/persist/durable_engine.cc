#include "persist/durable_engine.h"

#include <algorithm>
#include <utility>

#include "common/stopwatch.h"
#include "persist/codec.h"
#include "persist/snapshot.h"

namespace coverage {
namespace persist {
namespace {

std::string HeaderBody(const Schema& schema, const EngineOptions& options) {
  ByteWriter out;
  EncodeSchema(schema, &out);
  EncodeEngineOptions(options, &out);
  return out.Take();
}

Status DecodeHeaderBody(const std::string& body, Schema* schema,
                        EngineOptions* options) {
  ByteReader in(body);
  auto decoded = DecodeSchema(&in);
  if (!decoded.ok()) return decoded.status();
  *schema = std::move(*decoded);
  COVERAGE_RETURN_IF_ERROR(DecodeEngineOptions(&in, options));
  return in.ExpectDone();
}

std::string RowsBody(const Dataset& rows) {
  ByteWriter out;
  EncodeRows(rows, &out);
  return out.Take();
}

}  // namespace

Status DurableEngineOptions::Validate() const {
  if (keep_snapshots < 1) {
    return Status::InvalidArgument(
        "DurableEngineOptions::keep_snapshots must be >= 1");
  }
  return Status::OK();
}

DurableEngine::DurableEngine(std::string dir, DurableEngineOptions opts,
                             std::unique_ptr<CoverageEngine> engine)
    : dir_(std::move(dir)),
      opts_(opts),
      fs_(opts.fs != nullptr ? opts.fs : FileSystem::Default()),
      engine_(std::move(engine)) {}

DurableEngine::~DurableEngine() {
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_ != nullptr) (void)wal_->Close();
}

StatusOr<std::unique_ptr<DurableEngine>> DurableEngine::Create(
    const std::string& dir, const Schema& schema, EngineOptions engine_opts,
    DurableEngineOptions opts) {
  COVERAGE_RETURN_IF_ERROR(opts.Validate());
  if (engine_opts.num_threads < 1) engine_opts.num_threads = 1;
  auto engine = CoverageEngine::Create(schema, engine_opts);
  if (!engine.ok()) return engine.status();
  FileSystem* fs = opts.fs != nullptr ? opts.fs : FileSystem::Default();
  COVERAGE_RETURN_IF_ERROR(fs->CreateDirs(dir));
  auto listing = ListSessionDir(fs, dir);
  if (!listing.ok()) return listing.status();
  if (!listing->empty()) {
    return Status::InvalidArgument("'" + dir +
                                   "' already holds a durable session; use "
                                   "Recover to reopen it");
  }

  auto durable = std::unique_ptr<DurableEngine>(
      new DurableEngine(dir, opts, std::move(*engine)));
  std::lock_guard<std::mutex> lock(durable->mu_);
  COVERAGE_RETURN_IF_ERROR(durable->RotateWalLocked());
  return durable;
}

StatusOr<std::unique_ptr<DurableEngine>> DurableEngine::Recover(
    const std::string& dir, const EngineOptions& runtime,
    DurableEngineOptions opts) {
  COVERAGE_RETURN_IF_ERROR(opts.Validate());
  FileSystem* fs = opts.fs != nullptr ? opts.fs : FileSystem::Default();
  auto listing = ListSessionDir(fs, dir);
  if (!listing.ok()) return listing.status();
  if (listing->empty()) {
    return Status::NotFound("no durable session at '" + dir + "'");
  }

  RecoveryStats recovery;
  recovery.recovered = true;

  // 1. Newest valid snapshot, falling back a generation per corrupt file.
  std::unique_ptr<CoverageEngine> engine;
  for (auto it = listing->snapshot_epochs.rbegin();
       it != listing->snapshot_epochs.rend() && engine == nullptr; ++it) {
    const std::string path = dir + "/" + SnapshotFileName(*it);
    auto image = ReadSnapshotFile(fs, path);
    if (image.ok()) {
      image->options.num_threads =
          runtime.num_threads >= 1 ? runtime.num_threads : 1;
      image->options.durability = runtime.durability;
      auto restored = CoverageEngine::Restore(std::move(*image));
      if (restored.ok()) {
        engine = std::move(*restored);
        recovery.snapshot_epoch = *it;
        continue;
      }
      // A schema too wide for a pattern key is not corruption: every
      // generation shares it, so there is nothing to fall back to.
      if (restored.status().code() == StatusCode::kResourceExhausted) {
        return restored.status();
      }
      ++recovery.snapshots_discarded;
      recovery.warnings.push_back("discarded snapshot '" + path +
                                  "': " + restored.status().ToString());
      continue;
    }
    ++recovery.snapshots_discarded;
    recovery.warnings.push_back("discarded snapshot '" + path +
                                "': " + image.status().ToString());
  }

  // 2. Without any usable snapshot the full history must still be on disk:
  //    the oldest WAL segment has to start at epoch 0, and its header
  //    carries the schema + problem knobs to rebuild the empty engine.
  if (engine == nullptr) {
    if (listing->wal_bases.empty() || listing->wal_bases.front() != 0) {
      return Status::Internal(
          "unrecoverable session at '" + dir +
          "': no valid snapshot and the WAL does not start at epoch 0");
    }
  }

  // 3. Replay every WAL record past the recovered epoch, in segment order.
  std::uint64_t last_replayed_epoch = 0;
  std::size_t last_evicted_rows = 0;
  bool replay_stopped = false;
  for (const std::uint64_t base : listing->wal_bases) {
    if (replay_stopped) break;
    const std::string path = dir + "/" + WalFileName(base);
    auto scan = ReadWalSegment(fs, path);
    if (!scan.ok()) {
      // An unreadable whole segment (bad magic / IO error) is not a torn
      // tail; refuse to guess at the state.
      return scan.status();
    }
    for (const WalRecord& record : scan->records) {
      if (record.type == WalRecordType::kHeader) {
        Schema stored_schema;
        EngineOptions stored_options;
        COVERAGE_RETURN_IF_ERROR(
            DecodeHeaderBody(record.body, &stored_schema, &stored_options));
        if (engine == nullptr) {
          stored_options.num_threads =
              runtime.num_threads >= 1 ? runtime.num_threads : 1;
          stored_options.durability = runtime.durability;
          auto created = CoverageEngine::Create(stored_schema, stored_options);
          if (!created.ok()) return created.status();
          engine = std::move(*created);
        } else if (!(stored_schema == engine->schema())) {
          return Status::Internal("WAL header in '" + path +
                                  "' disagrees with the recovered schema");
        }
        continue;
      }
      if (engine == nullptr) {
        return Status::Internal("WAL segment '" + path +
                                "' starts with data before any header");
      }
      if (record.type == WalRecordType::kEvict) {
        // Evictions replay as part of their append; the record is a
        // consistency check on the epoch we just rebuilt.
        if (record.epoch == last_replayed_epoch &&
            record.epoch > recovery.snapshot_epoch) {
          ByteReader in(record.body);
          std::uint64_t logged_evicted = 0;
          COVERAGE_RETURN_IF_ERROR(in.GetU64(&logged_evicted));
          COVERAGE_RETURN_IF_ERROR(in.ExpectDone());
          if (logged_evicted != last_evicted_rows) {
            return Status::Internal(
                "replay divergence in '" + path + "': epoch " +
                std::to_string(record.epoch) + " evicted " +
                std::to_string(last_evicted_rows) + " rows, WAL says " +
                std::to_string(logged_evicted));
          }
        }
        continue;
      }
      if (record.epoch <= engine->epoch()) continue;  // snapshot covers it
      if (record.epoch != engine->epoch() + 1) {
        return Status::Internal(
            "WAL gap in '" + path + "': have epoch " +
            std::to_string(engine->epoch()) + ", next record is epoch " +
            std::to_string(record.epoch));
      }
      ByteReader in(record.body);
      auto rows = DecodeRows(engine->schema(), &in);
      if (!rows.ok()) return rows.status();
      COVERAGE_RETURN_IF_ERROR(in.ExpectDone());
      EngineUpdateStats stats;
      const Status applied =
          record.type == WalRecordType::kAppend
              ? engine->AppendRows(*rows, &stats)
              : engine->RetractRows(*rows, &stats);
      if (!applied.ok()) {
        return Status::Internal("replaying '" + path + "' epoch " +
                                std::to_string(record.epoch) +
                                " failed: " + applied.ToString());
      }
      ++recovery.records_replayed;
      recovery.rows_replayed += rows->num_rows();
      last_replayed_epoch = record.epoch;
      last_evicted_rows = record.type == WalRecordType::kAppend
                              ? stats.rows_retracted
                              : 0;
    }
    if (scan->torn_tail) {
      // Expected crash damage: keep the prefix, warn, and replay nothing
      // after the tear (later segments would skip epochs).
      recovery.torn_tail = true;
      recovery.warnings.push_back("WAL '" + path + "': " +
                                  scan->tail_warning +
                                  "; kept the valid prefix");
      replay_stopped = true;
    }
  }
  if (engine == nullptr) {
    return Status::Internal("unrecoverable session at '" + dir +
                            "': WAL holds no header record");
  }

  auto durable = std::unique_ptr<DurableEngine>(
      new DurableEngine(dir, opts, std::move(engine)));
  durable->recovery_ = std::move(recovery);

  // 4. Leave the directory clean: fold the replayed tail into a fresh
  //    snapshot, rotate to a new segment (never append to crash-damaged
  //    files), prune superseded generations.
  std::lock_guard<std::mutex> lock(durable->mu_);
  COVERAGE_RETURN_IF_ERROR(durable->CheckpointLocked());
  return durable;
}

Status DurableEngine::Append(const Dataset& rows, EngineUpdateStats* stats,
                             obs::Trace* trace) {
  return Mutate(WalRecordType::kAppend, rows, stats, trace);
}

Status DurableEngine::Retract(const Dataset& rows, EngineUpdateStats* stats,
                              obs::Trace* trace) {
  return Mutate(WalRecordType::kRetract, rows, stats, trace);
}

Status DurableEngine::Mutate(WalRecordType type, const Dataset& rows,
                             EngineUpdateStats* stats, obs::Trace* trace) {
  std::shared_ptr<WalWriter> wal;
  std::uint64_t lsn = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    COVERAGE_RETURN_IF_ERROR(poisoned_);

    EngineUpdateStats local;
    EngineUpdateStats* s = stats != nullptr ? stats : &local;
    Status applied;
    {
      obs::ScopedStage stage(trace, "engine_update");
      applied = type == WalRecordType::kAppend ? engine_->AppendRows(rows, s)
                                               : engine_->RetractRows(rows, s);
    }
    // Validation failures leave the engine unchanged; nothing to log.
    COVERAGE_RETURN_IF_ERROR(applied);

    if (durability() != DurabilityMode::kNone) {
      obs::ScopedStage stage(trace, "wal_append");
      const std::uint64_t epoch = engine_->epoch();
      Status logged = wal_->Append(type, epoch, RowsBody(rows), &lsn);
      if (logged.ok()) ++records_logged_;
      if (logged.ok() && type == WalRecordType::kAppend &&
          s->rows_retracted > 0) {
        ByteWriter evicted;
        evicted.PutU64(s->rows_retracted);
        logged = wal_->Append(WalRecordType::kEvict, epoch, evicted.Take(),
                              &lsn);
        if (logged.ok()) ++records_logged_;
      }
      if (!logged.ok()) {
        // Memory is now ahead of the log; durability can no longer be
        // promised for anything after this point.
        poisoned_ = Status::Internal("durable session poisoned by WAL "
                                     "failure: " +
                                     logged.ToString());
        return logged;
      }
      wal = wal_;
    }

    if (opts_.checkpoint_after_wal_bytes > 0 && wal_ != nullptr &&
        wal_->end_offset() >= opts_.checkpoint_after_wal_bytes) {
      // Best effort: a failed checkpoint leaves the WAL as the source of
      // truth, which is exactly what it is for. (A rotation failure inside
      // poisons separately.)
      obs::ScopedStage stage(trace, "checkpoint");
      (void)CheckpointLocked();
    }
  }

  if (wal != nullptr && durability() == DurabilityMode::kFsync) {
    // Group commit outside the mutation lock: concurrent writers coalesce
    // onto one fdatasync.
    obs::ScopedStage stage(trace, "wal_fsync");
    const Status synced = wal->Sync(lsn);
    if (!synced.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      poisoned_ = Status::Internal("durable session poisoned by fsync "
                                   "failure: " +
                                   synced.ToString());
      return synced;
    }
  }
  return Status::OK();
}

Status DurableEngine::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  COVERAGE_RETURN_IF_ERROR(poisoned_);
  return CheckpointLocked();
}

Status DurableEngine::CheckpointLocked() {
  const Stopwatch timer;
  // Observe the snapshot+rotate cycle whether it succeeds or fails — a
  // failing checkpoint still costs the latency it is charged with.
  struct Observer {
    const Stopwatch& timer;
    obs::Histogram* histogram;
    ~Observer() {
      if (histogram != nullptr) histogram->Observe(timer.ElapsedSeconds());
    }
  } observer{timer, opts_.checkpoint_histogram};
  const EngineImage image = engine_->CaptureImage();
  const std::uint64_t epoch = image.epoch;
  COVERAGE_RETURN_IF_ERROR(WriteSnapshotFile(fs_, dir_, image));
  ++checkpoints_written_;
  COVERAGE_RETURN_IF_ERROR(RotateWalLocked());

  // Prune: keep the newest keep_snapshots generations and every WAL
  // segment from the oldest kept snapshot on (its fallback chain).
  auto listing = ListSessionDir(fs_, dir_);
  if (!listing.ok()) return Status::OK();  // pruning is best effort
  const auto& snaps = listing->snapshot_epochs;
  const std::size_t keep = static_cast<std::size_t>(opts_.keep_snapshots);
  if (snaps.size() <= keep) return Status::OK();
  const std::uint64_t oldest_kept = snaps[snaps.size() - keep];
  for (const std::uint64_t old_epoch : snaps) {
    if (old_epoch < oldest_kept) {
      (void)fs_->Remove(dir_ + "/" + SnapshotFileName(old_epoch));
    }
  }
  for (const std::uint64_t base : listing->wal_bases) {
    if (base < oldest_kept && base != epoch) {
      (void)fs_->Remove(dir_ + "/" + WalFileName(base));
    }
  }
  return Status::OK();
}

Status DurableEngine::RotateWalLocked() {
  if (wal_ != nullptr) {
    retired_sync_calls_ += wal_->sync_calls();
    retired_sync_seconds_ += wal_->sync_seconds();
    (void)wal_->Close();
    wal_ = nullptr;
  }
  const std::string path =
      dir_ + "/" + WalFileName(engine_->epoch());
  auto writer = WalWriter::Open(fs_, path, /*truncate=*/true);
  Status rotated = writer.ok() ? Status::OK() : writer.status();
  if (rotated.ok()) {
    wal_ = std::shared_ptr<WalWriter>(std::move(*writer));
    wal_->set_sync_histogram(opts_.fsync_histogram);
    std::uint64_t lsn = 0;
    rotated = wal_->Append(WalRecordType::kHeader, engine_->epoch(),
                           HeaderBody(engine_->schema(), engine_->options()),
                           &lsn);
    // The header (and the directory entry of the new segment) must be
    // durable regardless of the durability mode: recovery needs to *find*
    // the session. One fdatasync per checkpoint is in the noise.
    if (rotated.ok()) rotated = wal_->Sync(lsn);
    if (rotated.ok()) rotated = fs_->SyncDir(dir_);
  }
  if (!rotated.ok()) {
    // The old segment is closed and no new one opened: logging is broken.
    poisoned_ = Status::Internal("durable session poisoned by WAL rotation "
                                 "failure: " +
                                 rotated.ToString());
    return rotated;
  }
  return Status::OK();
}

PersistStats DurableEngine::persist_stats() const {
  PersistStats stats;
  std::lock_guard<std::mutex> lock(mu_);
  stats.records_logged = records_logged_;
  stats.checkpoints_written = checkpoints_written_;
  stats.sync_calls = retired_sync_calls_;
  stats.sync_seconds = retired_sync_seconds_;
  if (wal_ != nullptr) {
    stats.wal_bytes = wal_->end_offset();
    stats.sync_calls += wal_->sync_calls();
    stats.sync_seconds += wal_->sync_seconds();
  }
  return stats;
}

Status DurableEngine::health() const {
  std::lock_guard<std::mutex> lock(mu_);
  return poisoned_;
}

}  // namespace persist
}  // namespace coverage
