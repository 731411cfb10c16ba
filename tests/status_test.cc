#include "util/status.h"

#include <gtest/gtest.h>

#include <string>

namespace movd {
namespace {

TEST(StatusTest, DefaultIsOk) {
  const Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(static_cast<bool>(s));
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_TRUE(s.message().empty());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  const Status s = Status::DataLoss("truncated record 7");
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(static_cast<bool>(s));
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(s.message(), "truncated record 7");
  EXPECT_EQ(s.ToString(), "DATA_LOSS: truncated record 7");
}

TEST(StatusTest, WireNamesMatchTheServeProtocol) {
  // These spellings are on the wire (serve ERR lines); renaming any of
  // them is a protocol break.
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCancelled), "CANCELLED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "INVALID_REQUEST");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "DEADLINE_EXCEEDED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDataLoss), "DATA_LOSS");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIoError), "IO_ERROR");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "INTERNAL_ERROR");
}

TEST(StatusOrTest, ImplicitFromValue) {
  const StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value(), 42);
  EXPECT_TRUE(v.status().ok());
}

TEST(StatusOrTest, ImplicitFromError) {
  const StatusOr<std::string> v = Status::NotFound("no such key");
  EXPECT_FALSE(v.ok());
  EXPECT_FALSE(v.has_value());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.status().message(), "no such key");
}

TEST(StatusOrTest, MoveOutOfValue) {
  StatusOr<std::string> v = std::string("payload");
  const std::string out = std::move(*v);
  EXPECT_EQ(out, "payload");
}

TEST(StatusOrTest, ArrowAccessesMembers) {
  StatusOr<std::string> v = std::string("abc");
  EXPECT_EQ(v->size(), 3u);
}

}  // namespace
}  // namespace movd
