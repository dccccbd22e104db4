// Graceful degradation for consolidated server calls.
//
// The paper's consolidated calls (§2.2) buy one-crossing execution of a
// multi-syscall pattern -- but a consolidated call is in-kernel user
// logic, so it is exactly what the supervisor quarantines. These wrappers
// are the degradation seam: a healthy extension runs the one-crossing
// kernel path under an InvocationGuard; a quarantined one decomposes the
// pattern back into its classic component syscalls (accept+recv; open/
// read/send.../close), paying the crossings the consolidation saved but
// keeping the SERVICE up. Callers see the same contract either way.
//
// Kernel-path failures that provably happened before any side effect
// (quota overrun before the accept, an injected reset at the accept site)
// are retried on the classic path within the same call, so a supervised
// server completes 100% of requests under a fault storm.
#pragma once

#include "net/net.hpp"
#include "sup/supervisor.hpp"
#include "uk/kernel.hpp"

namespace usk::sup {

/// Supervised consolidation::sys_accept_recv. The caller must initialize
/// *uconnfd to -1 (the serving workload does): the wrapper reads it
/// back to distinguish "failed before accepting" (safe to retry
/// classically) from "connection delivered, recv failed" (surfaced
/// as-is). EAGAIN is passed through untouched.
SysRet supervised_accept_recv(Supervisor& s, ExtId id, net::Net& net,
                              uk::Kernel& k, uk::Process& p, int listenfd,
                              void* ubuf, std::size_t n, int* uconnfd);

/// Supervised consolidation::sys_sendfile. The kernel path only fails
/// with zero bytes sent, so every failure (except EAGAIN) is safe to
/// retry via the classic open/lseek/read/send/close decomposition.
SysRet supervised_sendfile(Supervisor& s, ExtId id, net::Net& net,
                           uk::Kernel& k, uk::Process& p, int sockfd,
                           const char* upath, std::uint64_t offset,
                           std::size_t count);

}  // namespace usk::sup
