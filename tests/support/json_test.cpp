#include "support/json.hpp"

#include <gtest/gtest.h>

namespace moonshot {
namespace {

TEST(Json, EscapesQuoteBackslashNewlineAndTab) {
  EXPECT_EQ(json_escape(""), "");
  EXPECT_EQ(json_escape("plain text"), "plain text");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape("a\tb"), "a\\tb");
}

TEST(Json, EscapesOtherControlBytesAsUnicode) {
  EXPECT_EQ(json_escape("\r"), "\\u000d");
  EXPECT_EQ(json_escape(std::string_view("\0", 1)), "\\u0000");
  EXPECT_EQ(json_escape("\x01\x1f"), "\\u0001\\u001f");
  EXPECT_EQ(json_escape("\x7f"), "\x7f");  // DEL is not a control byte in JSON
}

TEST(Json, PassesHighBytesThrough) {
  // UTF-8 stays as raw bytes, and so does any other byte >= 0x80.
  EXPECT_EQ(json_escape("\xce\xbb=3\xce\xb4"), "\xce\xbb=3\xce\xb4");
  EXPECT_EQ(json_escape("\x80\xff"), "\x80\xff");
}

TEST(Json, ArrayElementsFromEmptyInput) {
  EXPECT_EQ(jsonl_as_array_elements("", "  "), "");
  EXPECT_EQ(jsonl_as_array_elements("\n\n", "  "), "");
}

TEST(Json, ArrayElementsJoinLinesWithIndent) {
  EXPECT_EQ(jsonl_as_array_elements("{\"a\":1}", "  "), "  {\"a\":1}\n");
  EXPECT_EQ(jsonl_as_array_elements("{\"a\":1}\n{\"b\":2}\n", "    "),
            "    {\"a\":1},\n    {\"b\":2}\n");
}

TEST(Json, ArrayElementsSkipBlankLines) {
  EXPECT_EQ(jsonl_as_array_elements("\n1\n\n2\n\n", ""), "1,\n2\n");
}

}  // namespace
}  // namespace moonshot
