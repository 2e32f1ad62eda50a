// Filesystem helpers shared by the service layer.
//
// move_file is the daemon's spool-move primitive (spool -> done/failed)
// and the cache manager's quarantine move. rename(2) is atomic but fails
// with EXDEV when source and destination sit on different filesystems
// (spool on tmpfs, done/ on disk; cache and quarantine on separate
// mounts). The fallback must preserve the visibility guarantee rename
// gives for free: a reader listing the destination directory either sees
// the complete file or no file — never a half-copied one. So the copy
// lands in a hidden temp name next to the destination and is renamed into
// place (same directory, so that rename cannot itself hit EXDEV); only
// then is the source removed.
//
// Durability: rename makes publication *atomic* but not *durable* — after
// a power loss, a renamed file can surface empty or truncated because the
// data blocks were never flushed, and the rename itself can be undone
// because the directory entry was never flushed. The sync_* helpers below
// close both holes: fdatasync the file before renaming it into place,
// fsync the parent directory after; write_file_durable is the one place
// that sequence is written. The sync helpers honor a process-wide
// Durability knob (the CLI's --durability flag): at kNone every sync is a no-op
// (benchmarks, throwaway caches), at kFull (the default) each helper
// issues the real syscall and bumps a process-wide fsync counter, which
// is mirrored into a metrics Counter ("fsync_total") when a serving
// process registers one — so benches and /metrics can show what
// durability costs.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>

namespace distapx::metrics {
class Counter;
}

namespace distapx::fsutil {

/// Moves `from` to `to`: rename when possible, temp-copy + rename +
/// remove-source across filesystems. Throws std::filesystem::
/// filesystem_error on failure; on any failure the destination path
/// either holds the complete file or nothing (temp droppings are
/// cleaned up), and the source survives unless the move fully succeeded.
void move_file(const std::filesystem::path& from,
               const std::filesystem::path& to);

/// Test seam: when set, move_file skips the rename(2) fast path and
/// always exercises the cross-filesystem copy fallback — a single-mount
/// test box cannot produce a real EXDEV. Not for production use.
void set_force_copy_move_for_testing(bool force) noexcept;

// ---- durability knob ------------------------------------------------------

enum class Durability {
  kNone,  ///< never fsync: fast, crash leaves torn/empty published files
  kFull,  ///< fdatasync data before rename, fsync directories after
};

/// Process-wide durability level; kFull until set otherwise. The sync_*
/// helpers below consult it, so flipping the knob changes every
/// publication path at once (the CLI's --durability flag).
void set_durability(Durability level) noexcept;
[[nodiscard]] Durability durability() noexcept;

/// "none"/"full" -> the level; nullopt for anything else (CLI parsing).
std::optional<Durability> parse_durability(std::string_view text) noexcept;

/// Lifetime count of fsync/fdatasync syscalls this process issued through
/// the helpers below (kNone no-ops are not counted). Benches read this to
/// price durability.
[[nodiscard]] std::uint64_t fsync_total() noexcept;

/// Mirrors every future fsync into `counter` (a registry's "fsync_total")
/// so /metrics and `cache stats` see the same number the process-wide
/// count does. Null detaches. The counter must outlive its registration;
/// serving CLIs pass the process registry, which lives to exit.
void set_fsync_counter(metrics::Counter* counter) noexcept;

/// fdatasync(fd) when durability is kFull; no-op (returns true) at kNone.
/// Returns false only on a real fdatasync failure.
bool sync_fd(int fd) noexcept;

/// fsyncs the *directory* `dir`, making renames/creates inside it
/// durable. No-op true at kNone; false on open/fsync failure.
bool sync_dir(const std::filesystem::path& dir) noexcept;

/// Test seam: while set, sync_dir fails (errno EIO) at every durability
/// level — a real directory fsync failure cannot be provoked on demand.
/// Not for production use.
void set_fail_dir_sync_for_testing(bool fail) noexcept;

/// write(2)s all of `data` to `fd`, retrying short writes and EINTR.
/// False on any other write error.
bool write_all(int fd, std::string_view data) noexcept;

/// Durable publication, the one temp + fdatasync + rename + directory
/// fsync sequence in the codebase (cache entries, changelog snapshots,
/// the daemon's done-files all publish through it). Writes `content` to
/// a hidden temp in the destination directory, named
/// ".pub-tmp.<pid>.<seq>.<filename>" with a process-wide sequence, so
/// concurrent calls — any threads, any processes, the same destination
/// included — never share a temp file; the last rename wins and every
/// reader sees one writer's complete bytes. Two syncs per call at kFull
/// (the data, then the directory), none at kNone.
///
/// Returns true once the file is in place and (at kFull) survives power
/// loss. Returns false with the reason in `*error` (when non-null) on any
/// failure. A failure before the rename leaves the destination untouched
/// and removes the temp. A failed directory sync comes *after* the
/// rename: the destination then already holds the complete new content,
/// but the call still returns false, because the rename is not known to
/// be durable — callers treat it as a failed publish (the changelog keeps
/// its tail; a cache store reports the fill as failed).
bool write_file_durable(const std::filesystem::path& path,
                        std::string_view content,
                        std::string* error = nullptr);

}  // namespace distapx::fsutil
