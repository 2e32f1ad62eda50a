#include "support/fsutil.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <string>
#include <system_error>

#include "support/metrics.hpp"

namespace distapx::fsutil {

namespace fs = std::filesystem;

namespace {

std::atomic<bool> g_force_copy{false};
std::atomic<bool> g_fail_dir_sync{false};
std::atomic<std::uint64_t> g_temp_seq{0};
std::atomic<Durability> g_durability{Durability::kFull};
std::atomic<std::uint64_t> g_fsync_total{0};
std::atomic<metrics::Counter*> g_fsync_counter{nullptr};

[[noreturn]] void throw_move_error(const fs::path& from, const fs::path& to,
                                   const std::error_code& ec) {
  throw fs::filesystem_error("cannot move file", from, to, ec);
}

void count_fsync() noexcept {
  g_fsync_total.fetch_add(1, std::memory_order_relaxed);
  if (metrics::Counter* c = g_fsync_counter.load(std::memory_order_relaxed)) {
    c->inc();
  }
}

}  // namespace

void set_force_copy_move_for_testing(bool force) noexcept {
  g_force_copy.store(force, std::memory_order_relaxed);
}

void set_fail_dir_sync_for_testing(bool fail) noexcept {
  g_fail_dir_sync.store(fail, std::memory_order_relaxed);
}

void set_durability(Durability level) noexcept {
  g_durability.store(level, std::memory_order_relaxed);
}

Durability durability() noexcept {
  return g_durability.load(std::memory_order_relaxed);
}

std::optional<Durability> parse_durability(std::string_view text) noexcept {
  if (text == "none") return Durability::kNone;
  if (text == "full") return Durability::kFull;
  return std::nullopt;
}

std::uint64_t fsync_total() noexcept {
  return g_fsync_total.load(std::memory_order_relaxed);
}

void set_fsync_counter(metrics::Counter* counter) noexcept {
  g_fsync_counter.store(counter, std::memory_order_relaxed);
}

bool sync_fd(int fd) noexcept {
  if (durability() == Durability::kNone) return true;
  int rc;
  do {
    rc = ::fdatasync(fd);
  } while (rc != 0 && errno == EINTR);
  if (rc == 0) count_fsync();
  return rc == 0;
}

bool sync_dir(const fs::path& dir) noexcept {
  if (g_fail_dir_sync.load(std::memory_order_relaxed)) {
    errno = EIO;
    return false;
  }
  if (durability() == Durability::kNone) return true;
  // O_DIRECTORY so a plain file at `dir` is an error, not a silent sync of
  // the wrong object. fsync (not fdatasync): directory metadata IS the
  // data being made durable here.
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  ::close(fd);
  if (rc == 0) count_fsync();
  return rc == 0;
}

bool write_all(int fd, std::string_view data) noexcept {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

bool write_file_durable(const fs::path& path, std::string_view content,
                        std::string* error) {
  fs::path dir = path.parent_path();
  if (dir.empty()) dir = ".";
  // One temp name per call, not per process: threads publishing the same
  // path concurrently must never open (and truncate) each other's temp.
  const std::uint64_t seq = g_temp_seq.fetch_add(1, std::memory_order_relaxed);
  const fs::path tmp = dir / (".pub-tmp." + std::to_string(::getpid()) + "." +
                              std::to_string(seq) + "." +
                              path.filename().string());
  const auto fail = [&](const char* what, const std::string& why) {
    std::error_code ignore;
    fs::remove(tmp, ignore);
    if (error != nullptr) {
      *error = std::string(what) + " " + path.string() + ": " + why;
    }
    return false;
  };
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) return fail("cannot create temp for", std::strerror(errno));
  // Data blocks first, then the rename, then the directory entry: after
  // the final sync the new name durably refers to complete content.
  const bool written = write_all(fd, content);
  const bool synced = written && sync_fd(fd);
  const int err = errno;
  ::close(fd);
  if (!synced) {
    return fail(written ? "cannot sync" : "cannot write", std::strerror(err));
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) return fail("cannot publish", ec.message());
  // The new content is in place from here on. A failed directory sync
  // still reports false: the rename is not known to survive power loss,
  // and a caller that orders later steps after it (the changelog's tail
  // reset) must not take them.
  if (!sync_dir(dir)) {
    return fail("cannot sync directory of", std::strerror(errno));
  }
  return true;
}

void move_file(const fs::path& from, const fs::path& to) {
  std::error_code ec;
  if (!g_force_copy.load(std::memory_order_relaxed)) {
    fs::rename(from, to, ec);
    if (!ec) return;
    // EXDEV is the expected reason to fall through; for anything else
    // (source missing, destination dir absent) the copy below fails with
    // the same diagnosis, so no need to special-case here.
  }

  // Copy to a temp name *in the destination directory*, then rename into
  // place: the destination name never exposes a partial file, and the
  // final rename is same-directory so it cannot hit EXDEV itself.
  const fs::path tmp =
      to.parent_path() /
      (".move-tmp." + std::to_string(::getpid()) + "." + to.filename().string());
  fs::copy_file(from, tmp, fs::copy_options::overwrite_existing, ec);
  if (ec) {
    std::error_code ignore;
    fs::remove(tmp, ignore);
    throw_move_error(from, to, ec);
  }
  fs::rename(tmp, to, ec);
  if (ec) {
    std::error_code ignore;
    fs::remove(tmp, ignore);
    throw_move_error(from, to, ec);
  }
  fs::remove(from, ec);
  if (ec) {
    // The destination is complete; a source that cannot be removed would
    // be re-claimed by the spool scan forever, so it is still an error.
    throw_move_error(from, to, ec);
  }
}

}  // namespace distapx::fsutil
