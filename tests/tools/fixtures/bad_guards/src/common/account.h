// Seeded guard-coverage violation: cached_total_ is mutable, unannotated,
// and carries no waiver in a class that uses PIPES_GUARDED_BY. deposits_ is
// a ShardedCounter, synchronized like a std::atomic, so it needs neither.
#pragma once

namespace fix {

class Account {
 public:
  void Deposit(int n);

 private:
  mutable Mutex mu_;
  int balance_ PIPES_GUARDED_BY(mu_) = 0;
  int cached_total_ = 0;
  int audited_ = 0;  // pipes-analyze: unguarded(fixture: reviewed)
  ShardedCounter deposits_;
};

}  // namespace fix
