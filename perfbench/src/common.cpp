#include "common.hpp"

#include <dirent.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unistd.h>

namespace pb {

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  const std::size_t k = std::min(
      v.size() - 1,
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()))) -
          (q > 0 ? 1 : 0));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

double windowed_quantile(const std::vector<double>& v, double q) {
  const std::size_t w = std::max<std::size_t>(1, v.size() / 1000);
  std::vector<double> per;
  for (std::size_t k = 0; k < w; ++k) {
    std::vector<double> chunk(v.begin() + static_cast<std::ptrdiff_t>(k * v.size() / w),
                              v.begin() + static_cast<std::ptrdiff_t>((k + 1) * v.size() / w));
    per.push_back(quantile(chunk, q));
  }
  return quantile(per, 0.25);
}

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Value of "key:" in a /proc status file, 0 when absent.
double status_field(const std::string& text, const char* key) {
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return 0;
  return std::strtod(text.c_str() + at + std::strlen(key), nullptr);
}

}  // namespace

TaskSample read_task(pid_t pid, pid_t tid) {
  const std::string dir =
      "/proc/" + std::to_string(pid) + "/task/" + std::to_string(tid) + "/";
  TaskSample s;
  const std::string sched = read_file(dir + "schedstat");
  if (!sched.empty()) {
    s.cpu_ns = std::strtod(sched.c_str(), nullptr);
  } else {
    // Fields 14/15 (utime, stime) in clock ticks, after the ")".
    const std::string stat = read_file(dir + "stat");
    const std::size_t rp = stat.rfind(')');
    if (rp != std::string::npos) {
      std::istringstream is(stat.substr(rp + 2));
      std::string field;
      double ut = 0, st = 0;
      for (int i = 3; i <= 15 && (is >> field); ++i) {
        if (i == 14) ut = std::strtod(field.c_str(), nullptr);
        if (i == 15) st = std::strtod(field.c_str(), nullptr);
      }
      s.cpu_ns = (ut + st) * 1e9 / static_cast<double>(::sysconf(_SC_CLK_TCK));
    }
  }
  s.voluntary_switches =
      status_field(read_file(dir + "status"), "voluntary_ctxt_switches:");
  return s;
}

double vmhwm_mb(pid_t pid) {
  const std::string text =
      read_file("/proc/" + std::to_string(pid) + "/status");
  return status_field(text, "VmHWM:") / 1024.0;
}

std::vector<pid_t> list_tasks(pid_t pid) {
  std::vector<pid_t> out;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* e = ::readdir(d)) {
      if (e->d_name[0] >= '0' && e->d_name[0] <= '9') {
        out.push_back(static_cast<pid_t>(std::atol(e->d_name)));
      }
    }
    ::closedir(d);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool SpanRecorder::write_chrome_json(const std::string& path,
                                     std::size_t cap) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  const std::size_t n = std::min(cap, spans_.size());
  const ns_t base = n > 0 ? spans_.front().start : 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start - base) / 1e3,
                 static_cast<double>(s.end - s.start) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void Result::fail(const std::string& what, std::uint64_t count) {
  if (count == 0) return;
  correct = false;
  failed += count;
  std::printf("fail %s (%llu)\n", what.c_str(),
              static_cast<unsigned long long>(count));
}

void Result::print() const {
  for (const auto& [name, vu] : metrics) {
    std::printf("metric %-36s %14.6f %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
  for (const auto& [name, vu] : extra) {
    std::printf("metric %-36s %14.6f %s (unbounded)\n", name.c_str(),
                vu.first, vu.second.c_str());
  }
  std::printf("error_rate %.9f (%llu failed of %llu attempted)\n",
              attempted == 0 ? 0.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, vu.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void info(const char* fmt, ...) {
  std::printf("info ");
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::printf("\n");
}

}  // namespace pb
